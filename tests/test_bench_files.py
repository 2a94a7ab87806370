"""The benchmark records at the root of the repository keep one layout.

Each ``BENCH_*.json`` compares a change with its parent commit on the
benchmark's workloads.  A backfilled file was rebuilt from figures quoted
elsewhere and may lack the per-pair detail; any other file records the
claim it tested and every pair of runs, one per seed.  From ``BENCH_14.json``
on, a measured file also records each run's timed passes beside the
long_words peak RSS, because the benchmark keeps one float per operation of
every pass, so the pass count moves that metric as much as the program does.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))

TOP_KEYS = ("backfilled", "change", "parent_commit", "seeds", "pairs", "workloads")
METRIC_KEYS = ("unit", "better", "parent", "change")


def test_there_are_bench_files():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_has_the_common_layout(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in TOP_KEYS:
        assert key in record, key
    assert isinstance(record["backfilled"], bool)
    assert record["workloads"]
    measured = not record["backfilled"]
    if measured:
        assert "claim" in record
    for workload, metrics in record["workloads"].items():
        assert metrics, workload
        for name, metric in metrics.items():
            for key in METRIC_KEYS:
                assert key in metric, (workload, name, key)
            if measured:
                pairs = metric["per_pair"]
                assert len(pairs) == record["pairs"], (workload, name)
                assert [pair["seed"] for pair in pairs] == record["seeds"], (workload, name)


def _record(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


#: the measured files from BENCH_14.json on
WITH_PASSES = [
    path for path in FILES
    if int(path.stem.split("_")[1]) >= 14 and not _record(path)["backfilled"]
]


@pytest.mark.parametrize("path", WITH_PASSES, ids=lambda path: path.name)
def test_long_words_peak_rss_pairs_record_their_passes(path):
    for pair in _record(path)["workloads"]["long_words"]["peak_rss_mb"]["per_pair"]:
        for side in ("parent_passes", "change_passes"):
            assert isinstance(pair.get(side), int) and pair[side] > 0, (pair["seed"], side)
