"""The workloads and the closed loop that times them.

Each workload is one client in one process calling the package's public API
(``core``, ``machines``, ``machine``, ``specfile``, ``baselines``) and, in the
traced run, its CLI as a subprocess, checking every output.  One pass runs
a fixed, seed-generated list of operations; the timed phase repeats whole
passes, so every pass does the same work and its time can be compared with
the others.

A failed check is counted and never stops the run.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from twoqfa import (
    LanguageId,
    TwoWayQfaSpec,
    build,
    dumps_spec,
    initial_vector,
    loads_spec,
    measure,
    membership,
    parse_recipe,
    run,
    signature,
    step,
    sweep_compare,
    transcribe,
    validate,
)
from twoqfa.core import DEFAULT_HALT_THRESHOLD, MAX_STEPS_FACTOR

from . import clicmd, inputs
from .trace import NullTracer

WORK_DIR = clicmd.ROOT / ".perfbench_out"


class Checks:
    """Counts checked operations and keeps the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems[:3])}")


# --- output checks -------------------------------------------------------------------


@dataclass(frozen=True)
class Expect:
    """What a run must show beyond halting with its mass conserved."""

    member: bool = False
    reject_floor: float | None = None


def expectation(tracer, spec: TwoWayQfaSpec, word: str) -> Expect:
    """The guarantee a bundled machine gives on `word`, from the oracle."""
    if spec.name == "m2":
        with tracer.span("baselines.membership"):
            member = membership(LanguageId.L2_DYCK, word)
        if member:
            return Expect(member=True)
        if word.count("(") != word.count(")"):
            return Expect(reject_floor=1 - 1 / spec.n_paths - 1e-6)
        return Expect()
    if spec.name == "m3":
        with tracer.span("baselines.membership"):
            member = membership(LanguageId.L3, word)
        if member:
            return Expect(member=True)
        if not re.fullmatch("a+b+c+", word):
            return Expect(reject_floor=1 - 1e-9)
        return Expect(reject_floor=1 - 1 / spec.n_paths - 1e-6)
    return Expect()


def result_problems(result, expect: Expect) -> list[str]:
    problems = []
    if not result.halted:
        problems.append("did not halt")
    total = result.p_accept + result.p_reject + result.p_residual
    if not abs(total - 1.0) < 1e-9:
        problems.append(f"total mass {total!r}")
    if expect.member and not result.p_accept >= 1 - 1e-6:
        problems.append(f"member accepted with {result.p_accept!r}")
    if expect.reject_floor is not None and not result.p_reject >= expect.reject_floor:
        problems.append(f"rejected with {result.p_reject!r} < {expect.reject_floor!r}")
    return problems


# --- timed loop ----------------------------------------------------------------------


@dataclass
class Op:
    """One operation of a pass: a call into one layer and its output check."""

    label: str
    layer: str  # span name around the call
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], int]]  # -> (problems, machine steps)
    words: int
    group: str = ""  # operations of one size class share a group; default: own label


@dataclass
class LoopStats:
    pass_s: list[float]
    op_s: list[list[float]]
    steps_per_pass: int
    words_per_pass: int
    results: list  # the first result of every operation

    def op_best(self) -> list[float | None]:
        """Fastest time of every operation over the timed passes.

        None for an operation that never completed.  On a small shared
        machine a slow phase can last most of a run: passes of one run
        differed by up to 1.6x.  The fastest pass of each operation is the
        one such a phase disturbed least, so it varies far less from run to
        run than the median does.
        """
        return [min(times) if times else None for times in self.op_s]

    def group_latencies(self, ops: list[Op]) -> list[float]:
        """Mean of the operation times within each size class of operations.

        Latency quantiles taken over classes rather than single operations
        do not jump when the seed makes one word of a class a little longer.
        """
        groups: dict[str, list[float]] = {}
        for op, best in zip(ops, self.op_best()):
            if best is not None:
                groups.setdefault(op.group or op.label, []).append(best)
        return [statistics.fmean(times) for times in groups.values()]

    @property
    def pass_seconds(self) -> float:
        """The work of one pass: every operation's fastest time, summed."""
        return sum(t for t in self.op_best() if t is not None)

    def words_per_s(self) -> float:
        return self.words_per_pass / self.pass_seconds


def run_passes(ops: list[Op], seconds: float, tracer, checks: Checks,
               between: Callable[[], None] | None = None) -> LoopStats:
    """One warm-up pass, then whole passes until another would overrun `seconds`.

    The warm-up is checked but neither timed nor traced; `seconds` counts
    from its start.  An operation's time is its call alone, not its output
    check.  `between`, when given, runs after every timed pass, outside
    the operations' times.  At least one timed pass always runs.
    """
    op_s: list[list[float]] = [[] for _ in ops]
    results: list = [None] * len(ops)
    pass_s: list[float] = []
    steps_per_pass = 0
    begin = perf_counter()
    warm = False
    while True:
        busy = 0.0
        steps = 0
        spans = tracer if warm else NullTracer()
        with spans.span("pass"):
            for index, op in enumerate(ops):
                start = perf_counter()
                try:
                    with spans.span(op.layer):
                        result = op.call()
                except Exception as exc:  # counted as a failed operation; the run goes on
                    checks.record(op.label, [f"raised {exc!r}"])
                    continue
                elapsed = perf_counter() - start
                problems, op_steps = op.check(result)
                checks.record(op.label, problems)
                busy += elapsed
                steps += op_steps
                if warm:
                    op_s[index].append(elapsed)
                if results[index] is None:
                    results[index] = result
        steps_per_pass = steps
        if warm:
            pass_s.append(busy)
            if between is not None:
                between()
            if perf_counter() - begin + busy > seconds:
                break
        warm = True
    return LoopStats(pass_s, op_s, steps_per_pass, sum(op.words for op in ops), results)


# --- calls into the layers -------------------------------------------------------------


def build_machine(tracer, name: str, n_paths: int | None) -> TwoWayQfaSpec:
    with tracer.span("machines.build"):
        return build(name, n_paths)


def check_validate(tracer, checks: Checks, spec: TwoWayQfaSpec) -> None:
    with tracer.span("machine.validate"):
        report = validate(spec)
    problems = [] if report.all_ok else ["not well formed"]
    checks.record(f"validate {spec.name} N={spec.n_paths}", problems)


def round_trip(tracer, checks: Checks, spec: TwoWayQfaSpec) -> tuple[TwoWayQfaSpec, int]:
    """dumps_spec then loads_spec; returns the loaded machine and the text size."""
    with tracer.span("specfile.dumps"):
        text = dumps_spec(spec)
    with tracer.span("specfile.loads"):
        loaded = loads_spec(text)
    checks.record(f"round trip {spec.name}", [] if loaded == spec else ["machine changed"])
    return loaded, len(text.encode())


def stepwise(tracer, spec: TwoWayQfaSpec, word: str) -> tuple[float, int, int]:
    """Drive initial_vector/step/measure as run() does.

    Returns p_accept, the step count and the number of configurations that
    carried amplitude after each step, summed over the steps.
    """
    with tracer.span("core.initial_vector"):
        vector = initial_vector(spec, word)
    p_accept = 0.0
    live = 0
    steps = 0
    for _ in range(MAX_STEPS_FACTOR * spec.n_paths * (len(word) + 2)):
        with tracer.span("core.step"):
            vector = step(spec, word, vector)
        live += int(np.count_nonzero(vector.data))
        with tracer.span("core.measure"):
            gain_accept, _, vector = measure(spec, vector)
        p_accept += gain_accept
        steps += 1
        if vector.norm_squared() < DEFAULT_HALT_THRESHOLD:
            break
    return p_accept, steps, live


@dataclass(frozen=True)
class Case:
    """One machine run on one word; `pair` links a word to its doubled partner."""

    spec: TwoWayQfaSpec
    word: str
    label: str
    expect: Expect = Expect()
    pair: object = None
    double: bool = False
    group: str = ""

    def cells(self, steps: int) -> int:
        return steps * len(self.spec.states) * (len(self.word) + 2)


def run_op(case: Case) -> Op:
    return Op(
        label=case.label,
        layer="core.run",
        call=lambda: run(case.spec, case.word),
        check=lambda result: (result_problems(result, case.expect), result.steps),
        words=1,
        group=case.group,
    )


def n2n_ratio(cases: list[Case], seconds: list[float]) -> float:
    """Time of the doubled words over time of their base words, summed over pairs."""
    timed = [(c, t) for c, t in zip(cases, seconds) if c.pair is not None and t is not None]
    base = {c.pair: t for c, t in timed if not c.double}
    double = {c.pair: t for c, t in timed if c.double}
    keys = base.keys() & double.keys()
    return sum(double[k] for k in keys) / sum(base[k] for k in keys)


def live_probe(tracer, checks: Checks, cases: list[Case], results: list) -> tuple[int, int]:
    """Stepwise runs that must match run() within 1e-12; returns live and cells."""
    live = cells = 0
    for case, result in zip(cases, results):
        p_accept, steps, case_live = stepwise(tracer, case.spec, case.word)
        problems = []
        if abs(p_accept - result.p_accept) > 1e-12 or steps != result.steps:
            problems.append(f"stepwise p_accept {p_accept!r} steps {steps}")
        checks.record(f"stepwise {case.label}", problems)
        live += case_live
        cells += case.cells(steps)
    return live, cells


def cli_probe(tracer, checks: Checks, spec: TwoWayQfaSpec, machine_args, pair, recipe_text: str,
              report, sweep_args, bad_word: str) -> None:
    """The CLI as a user runs it, one subprocess per command, on a workload's machine.

    validate, exporting the machine with --export-spec; validate the
    exported file; run a word (structured) and its 2n partner (csv); run a
    recipe; sweep; and run a bad word, which must exit with code 2.  Every
    output must equal the in-process result within 1e-12, in the documented
    key order.
    """
    exported = WORK_DIR / f"{spec.name}.machine"
    recipe_path = WORK_DIR / f"{spec.name}.recipe"
    recipe_path.write_text(recipe_text, encoding="utf-8")
    recipe = parse_recipe(recipe_text)
    recipe_word = transcribe(recipe)
    recipe_result = run(spec, recipe_word)
    sig = signature(recipe.system, recipe_result)
    recipe_record = dict(zip(
        clicmd.RECIPE_KEYS,
        (*run_record(spec, recipe_word, recipe_result).values(), sig.verdict, sig.descriptor),
    ))
    validated = validate_record(spec, validate(spec))
    structured = ("--format", "structured")
    short, long = pair
    commands = (
        ("validate", ("validate",) + machine_args + structured + ("--export-spec", exported.name),
         0, validated, "structured"),
        ("validate", ("validate", "--machine", exported.name) + structured,
         0, validated, "structured"),
        ("run", ("run",) + machine_args + ("--word", short) + structured,
         0, run_record(spec, short, run(spec, short)), "structured"),
        ("run", ("run",) + machine_args + ("--word", long, "--format", "csv"),
         0, run_record(spec, long, run(spec, long)), "csv"),
        ("run", ("run",) + machine_args + ("--recipe", recipe_path.name) + structured,
         0, recipe_record, "structured"),
        ("sweep", ("sweep",) + machine_args + sweep_args + structured,
         0, sweep_record(report), "structured"),
        ("error_path", ("run",) + machine_args + ("--word", bad_word) + structured,
         2, None, "structured"),
    )
    for kind, args, code, want, fmt in commands:
        with tracer.span(f"cli.{kind}"):
            got_code, stdout, _ = clicmd.run_cli(args, WORK_DIR)
        problems = clicmd.check_output(got_code, stdout, code, want, fmt)
        if "--export-spec" in args and exported.read_text(encoding="utf-8") != dumps_spec(spec):
            problems.append("exported machine differs from dumps_spec")
        checks.record(f"cli {' '.join(args[:3])}", problems)


# The expected CLI records below are built in the key order the CLI
# documents, so comparing with them also checks the order.


def run_record(spec: TwoWayQfaSpec, word: str, result) -> dict:
    values = (spec.name or "custom", spec.n_paths, word, result.p_accept, result.p_reject,
              result.p_residual, result.steps, result.halted)
    return dict(zip(clicmd.RUN_KEYS, values))


def validate_record(spec: TwoWayQfaSpec, report) -> dict:
    values = (
        spec.name or "custom", spec.n_paths, report.all_ok, report.tolerance,
        report.unitarity_ok, report.unitarity_max_deviation,
        report.local_probability_ok, report.local_probability_max_deviation,
        report.separability1_ok, report.separability1_max_deviation,
        report.separability2_ok, report.separability2_max_deviation,
        [list(entry) for entry in report.padded_entries],
    )
    return dict(zip(clicmd.VALIDATE_KEYS, values))


def sweep_record(report) -> dict:
    record = report.to_json_obj()
    return {key: record.get(key) for key in clicmd.SWEEP_KEYS}


def sweep_counts(reports) -> dict:
    return {
        "baselines.words": sum(r.total_words for r in reports),
        "baselines.mismatches": sum(len(r.mismatches) for r in reports),
        "baselines.bound_violations": sum(len(r.bound_violations) for r in reports),
    }


def traced_sweep(tracer, spec, language: LanguageId, max_len: int):
    with tracer.span("baselines.sweep_compare"):
        return sweep_compare(spec, language, max_len)


def oracle_pass(tracer, language: LanguageId, words) -> None:
    for word in words:
        with tracer.span("baselines.membership"):
            membership(language, word)


# --- workloads ---------------------------------------------------------------------------


class Workload:
    """Set-up, the run() calls of one pass, and the probes of the traced run.

    setup() builds or loads the machines and validates each once; setup_s
    times it.  prepare() makes the cases and what their checks need,
    untimed.  probes() runs only in the traced run and returns the
    per-layer counts.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.specs: dict = {}
        self.cases: list[Case] = []
        self.states = 0
        self.spec_bytes = 0

    def setup(self, tracer, checks: Checks) -> None:
        raise NotImplementedError

    def prepare(self, tracer, checks: Checks) -> None:
        raise NotImplementedError

    def probes(self, tracer, checks: Checks, loop: LoopStats) -> dict:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        return [run_op(case) for case in self.cases]

    def _keep(self, key, spec: TwoWayQfaSpec) -> TwoWayQfaSpec:
        self.specs[key] = spec
        self.states += len(spec.states)
        return spec

    def core_counts(self, tracer, checks: Checks, loop: LoopStats) -> dict:
        done = [(c, r) for c, r in zip(self.cases, loop.results) if r is not None]
        live, probe_cells = live_probe(tracer, checks, *zip(*done))
        return {
            "core.steps": sum(r.steps for _, r in done),
            "core.cells": sum(c.cells(r.steps) for c, r in done),
            "core.live": live,
            "core.live_ratio": live / probe_cells,
            "core.n2n_time_ratio": n2n_ratio(self.cases, loop.op_best()),
        }

    def _pair(self, spec: TwoWayQfaSpec) -> tuple[str, str]:
        """The shortest base word of `spec` and its 2n partner."""
        base = min((c for c in self.cases if c.spec is spec and not c.double),
                   key=lambda c: len(c.word))
        partner = next(c for c in self.cases if c.pair == base.pair and c.double)
        return base.word, partner.word


class LongWords(Workload):
    """m2 N=10 and m3 N=5 on 24- to 128-symbol words in n/2n pairs."""

    name = "long_words"
    #: (language, max_len, total words, mismatches, bound violations) of the
    #: probe sweeps of m2 N=10 and m3 N=5, recorded from the seed code
    PROBE_SWEEPS = (("L2_DYCK", 6, 127, 2, 2), ("L3", 4, 121, 0, 0))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.word_cases, self.recipe_text, self.digest = inputs.long_words(seed)

    def setup(self, tracer, checks: Checks) -> None:
        for name, n_paths in inputs.LONG_MACHINES:
            spec = build_machine(tracer, name, n_paths)
            check_validate(tracer, checks, self._keep((name, n_paths), spec))

    def prepare(self, tracer, checks: Checks) -> None:
        for wc in self.word_cases:
            spec = self.specs[wc.machine]
            label = f"{spec.name} N={spec.n_paths} {wc.kind} n={len(wc.word)}"
            expect = expectation(tracer, spec, wc.word)
            self.cases.append(Case(spec, wc.word, label, expect, (wc.machine, wc.pair), wc.double))

    def probes(self, tracer, checks: Checks, loop: LoopStats) -> dict:
        for spec in self.specs.values():
            self.spec_bytes += round_trip(tracer, checks, spec)[1]
        reports = []
        for spec, (language, max_len, *expected) in zip(self.specs.values(), self.PROBE_SWEEPS):
            report = traced_sweep(tracer, spec, LanguageId(language), max_len)
            got = [report.total_words, len(report.mismatches), len(report.bound_violations)]
            checks.record(f"sweep {spec.name} {language}",
                          [] if got == expected else [f"counts {got} != {expected}"])
            reports.append(report)
        m2 = self.specs[inputs.LONG_MACHINES[0]]
        cli_probe(tracer, checks, m2, ("--machine", "m2", "--n-paths", "10"), self._pair(m2),
                  self.recipe_text, reports[0], ("--lang", "L2_DYCK", "--max-len", "6"), "(x)")
        return {**self.core_counts(tracer, checks, loop), **sweep_counts(reports)}


class DenseMachine(Workload):
    """Random dense unitary machines, round-tripped through the text format."""

    name = "dense_machine"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.machines, self.recipe_text, self.digest = inputs.dense_machines(seed)

    def setup(self, tracer, checks: Checks) -> None:
        for m in self.machines:
            with tracer.span("machines.build"):
                spec = TwoWayQfaSpec(
                    states=m.states,
                    input_alphabet=("a", "b"),
                    initial_state=m.states[0],
                    accept_states=frozenset(m.accept),
                    reject_states=frozenset(m.reject),
                    symbol_unitaries=dict(m.matrices),
                    head_fn=dict(zip(m.states, m.head)),
                    name=m.name,
                )
            loaded, size = round_trip(tracer, checks, spec)
            self.spec_bytes += size
            check_validate(tracer, checks, self._keep(m.name, loaded))

    def prepare(self, tracer, checks: Checks) -> None:
        self.cases = [
            Case(self.specs[m.name], word, f"{m.name} S={len(m.states)} n={len(word)}",
                 pair=(m.name, pair), double=double, group=f"n={len(word)}")
            for m in self.machines
            for word, pair, double in m.words
        ]

    def probes(self, tracer, checks: Checks, loop: LoopStats) -> dict:
        # the random machines read {a, b}, so the L1 oracle and sweep apply
        # to them; the counts are a fixed property of each seed's machines.
        # One machine of each size is swept.
        oracle_pass(tracer, LanguageId.L1_REGEX, [c.word for c in self.cases])
        repeats = inputs.DENSE_REPEATS
        swept = list(self.specs.values())[: len(inputs.DENSE_SIZES) * repeats: repeats]
        reports = [traced_sweep(tracer, spec, LanguageId.L1_REGEX, 4) for spec in swept]
        first = self.specs[self.machines[0].name]
        path = WORK_DIR / f"{first.name}-input.machine"
        path.write_text(dumps_spec(first), encoding="utf-8")
        cli_probe(tracer, checks, first, ("--machine", path.name), self._pair(first),
                  self.recipe_text, reports[0], ("--lang", "L1_REGEX", "--max-len", "4"), "abx")
        return {**self.core_counts(tracer, checks, loop), **sweep_counts(reports)}


WORKLOADS = {w.name: w for w in (LongWords, DenseMachine)}
