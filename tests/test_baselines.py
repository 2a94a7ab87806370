"""Classical oracles and the differential sweep."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from twoqfa.baselines import (
    MAX_SWEEP_LEN,
    LanguageId,
    MultiStackPda,
    NondeterministicPdaError,
    dyck_pda,
    l3_pda,
    membership,
    run_pda,
    sweep_compare,
    words_up_to,
)
from twoqfa.machine import TwoWayQfaSpec


def test_membership_worked_examples():
    assert membership(LanguageId.L3, "aabbcc")
    assert not membership(LanguageId.L3, "aabbc")
    assert not membership(LanguageId.L2_DYCK, ")(")
    assert membership(LanguageId.L2_COUNT, ")(")
    assert membership(LanguageId.L1_REGEX, "abab")
    assert not membership(LanguageId.L1_REGEX, "aaab")
    assert not membership(LanguageId.L1_REGEX, "ab")
    assert membership(LanguageId.L1_PROSE, "ab")
    assert not membership(LanguageId.L1_PROSE, "aaa")


def test_membership_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        membership(LanguageId.L3, "abx")
    with pytest.raises(ValueError):
        membership(LanguageId.L2_DYCK, "ab")
    with pytest.raises(ValueError, match=r"^symbol 'y' is not in the L3 alphabet$"):
        membership(LanguageId.L3, "abyxc")


def test_alphabets():
    assert LanguageId.L1_REGEX.alphabet == ("a", "b")
    assert LanguageId.L2_DYCK.alphabet == ("(", ")")
    assert LanguageId.L3.alphabet == ("a", "b", "c")


_L1_PATTERN = re.compile(r"(a|b)*a(a|b)*b(a|b)*aa*bb*\Z")


# re backtracks cubically on this pattern, so long words carry known verdicts
_LONG_L1_VERDICTS = [
    ("ab" * 5000, True),
    ("a" * 10000 + "b", False),
    ("ab" + "a" * 10000 + "b", True),
    ("b" * 10000, False),
    ("ab" * 5000 + "a", False),
    ("ba" * 5000 + "bb", True),
]


def test_l1_regex_oracle_agrees_with_the_re_module():
    for word in words_up_to(("a", "b"), MAX_SWEEP_LEN):
        expected = _L1_PATTERN.match(word) is not None
        assert membership(LanguageId.L1_REGEX, word) is expected, word
    for word, expected in _LONG_L1_VERDICTS:
        assert membership(LanguageId.L1_REGEX, word) is expected, word[:8]


def test_dyck_words_also_balance_counts():
    for length in range(11):
        for letters in itertools.product("()", repeat=length):
            word = "".join(letters)
            if membership(LanguageId.L2_DYCK, word):
                assert membership(LanguageId.L2_COUNT, word)


def test_run_pda_worked_examples():
    assert run_pda(dyck_pda(), "(())")
    assert not run_pda(dyck_pda(), "((")
    assert not run_pda(dyck_pda(), ")(")
    assert run_pda(l3_pda(), "aabbcc")
    assert not run_pda(l3_pda(), "aabbc")
    assert not run_pda(l3_pda(), "")


def test_pdas_match_the_predicates_on_short_words():
    for word in words_up_to(("(", ")"), 8):
        assert run_pda(dyck_pda(), word) is membership(LanguageId.L2_DYCK, word)
    for word in words_up_to(("a", "b", "c"), 8):
        assert run_pda(l3_pda(), word) is membership(LanguageId.L3, word)


def test_pda_with_conflicting_moves_is_flagged():
    pda = MultiStackPda(
        states=("u",),
        input_alphabet=("x",),
        n_stacks=1,
        initial_state="u",
        accept_states=frozenset({"u"}),
        transitions={
            ("u", "x", (None,)): ("u", ((False, ()),)),
            ("u", None, (None,)): ("u", ((False, ()),)),
        },
    )
    with pytest.raises(NondeterministicPdaError):
        run_pda(pda, "x")


def test_pda_epsilon_moves_drain_the_stack():
    # 'x' pushes, 'y' switches to a drain state that pops by epsilon moves
    pda = MultiStackPda(
        states=("u", "d"),
        input_alphabet=("x", "y"),
        n_stacks=1,
        initial_state="u",
        accept_states=frozenset({"d"}),
        transitions={
            ("u", "x", (None,)): ("u", ((False, ("X",)),)),
            ("u", "x", ("X",)): ("u", ((False, ("X",)),)),
            ("u", "y", ("X",)): ("d", ((False, ()),)),
            ("d", None, ("X",)): ("d", ((True, ()),)),
        },
    )
    assert run_pda(pda, "xxy")
    assert not run_pda(pda, "xy" + "x")


def test_pda_epsilon_cycle_hits_the_step_budget():
    pda = MultiStackPda(
        states=("u",),
        input_alphabet=("x",),
        n_stacks=1,
        initial_state="u",
        accept_states=frozenset(),
        transitions={("u", None, (None,)): ("u", ((False, ()),))},
    )
    with pytest.raises(ValueError, match="budget"):
        run_pda(pda, "")


def test_words_up_to_is_shortlex():
    words = list(words_up_to(("a", "b"), 2))
    assert words == ["", "a", "b", "aa", "ab", "ba", "bb"]


def test_sweep_reports_the_empty_word_mismatch(m2_5):
    report = sweep_compare(m2_5, LanguageId.L2_COUNT, max_len=0)
    assert report.total_words == 1
    assert len(report.mismatches) == 1
    row = report.mismatches[0]
    assert row.word == ""
    assert row.oracle_accepts is True
    assert row.machine_accepts is False
    assert report.bound_checked
    assert len(report.bound_violations) == 1
    assert report.bound_violations[0].word == ""


def test_sweep_finds_no_gaps_for_the_triple_block_machine(m3_5):
    report = sweep_compare(m3_5, LanguageId.L3, max_len=6)
    assert report.total_words == 1093
    assert report.mismatches == ()
    assert report.bound_checked
    assert report.bound_violations == ()


def test_sweep_reports_each_non_member_a_machine_named_m2_fails_to_reject():
    """A machine named m2 with two paths is held to rejecting non-members with 1 - 1/2."""
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    accepts_all = TwoWayQfaSpec(
        states=("s", "acc", "rej"),
        input_alphabet=("(", ")"),
        initial_state="s",
        accept_states=frozenset({"acc"}),
        reject_states=frozenset({"rej"}),
        symbol_unitaries={symbol: swap for symbol in "#()$"},
        head_fn={"s": 0, "acc": 0, "rej": 0},
        name="m2",
        n_paths=2,
    )
    report = sweep_compare(accepts_all, LanguageId.L2_COUNT, max_len=4)
    assert report.bound_checked
    non_members = [w for w in words_up_to(("(", ")"), 4) if not membership(LanguageId.L2_COUNT, w)]
    assert len(non_members) == 22
    assert [v.word for v in report.bound_violations] == non_members
    for violation in report.bound_violations:
        assert violation.requirement == "non-member rejected with probability 0.499999"
        assert (violation.p_accept, violation.p_reject) == (1.0, 0.0)


def test_sweep_mismatches_come_out_in_shortlex_order(m2_2):
    report = sweep_compare(m2_2, LanguageId.L2_DYCK, max_len=4)
    words = [row.word for row in report.mismatches]
    ranked = sorted(words, key=lambda w: (len(w), w))
    assert words == ranked


def test_sweep_rejects_oversized_ranges(m3_5):
    with pytest.raises(ValueError):
        sweep_compare(m3_5, LanguageId.L3, max_len=15)
    with pytest.raises(ValueError):
        sweep_compare(m3_5, LanguageId.L3, max_len=-1)


def test_sweep_rejects_alphabet_mismatches(m1):
    with pytest.raises(ValueError):
        sweep_compare(m1, LanguageId.L3, max_len=3)


def test_report_serialises_with_fixed_keys(m2_2):
    report = sweep_compare(m2_2, LanguageId.L2_DYCK, max_len=2)
    obj = report.to_json_obj()
    assert list(obj) == [
        "language",
        "machine",
        "N",
        "max_len",
        "total_words",
        "mismatch_count",
        "mismatches",
        "bound_checked",
        "bound_violations",
    ]
    assert obj["machine"] == "m2"
    assert obj["N"] == 2
    assert obj["mismatch_count"] == len(report.mismatches)
