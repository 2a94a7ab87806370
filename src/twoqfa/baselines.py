"""Classical reference automata and differential comparison.

Five reference languages pair up with the bundled machines.  The two L1
readings differ on purpose: L1_REGEX is the pattern (a|b)*a(a|b)*b(a|b)*aa*bb*,
decided in one pass over the word, while L1_PROSE only asks for at least one
a and one b.  The L2 pair splits the same way (well-nested versus equal counts).

A small deterministic multi-stack pushdown simulator provides independent
oracles for the context-free and context-sensitive cases; acceptance is by
final state with every stack empty, and epsilon moves are allowed to drain.
sweep_compare runs a machine against an oracle over every word up to a
length cap and reports disagreements instead of deciding who is right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .core import run
from .errors import NondeterministicPdaError
from .machine import TwoWayQfaSpec


class LanguageId(Enum):
    L1_REGEX = "L1_REGEX"
    L1_PROSE = "L1_PROSE"
    L2_DYCK = "L2_DYCK"
    L2_COUNT = "L2_COUNT"
    L3 = "L3"

    @property
    def alphabet(self) -> tuple[str, ...]:
        if self in (LanguageId.L1_REGEX, LanguageId.L1_PROSE):
            return ("a", "b")
        if self in (LanguageId.L2_DYCK, LanguageId.L2_COUNT):
            return ("(", ")")
        return ("a", "b", "c")


def _match_l1_regex(word: str) -> bool:
    """Decide (a|b)*a(a|b)*b(a|b)*aa*bb* from the first and the last a.

    The tail aa*bb* forces the last a to be followed by at least one b and
    nothing else, and it can begin at that last a, which leaves the longest
    prefix for (a|b)*a(a|b)*b(a|b)*: some a with a later b before the last
    a.  The first a is the best candidate for that earlier a.
    """
    first, last = word.find("a"), word.rfind("a")
    return 0 <= last < len(word) - 1 and "b" in word[first:last]


def _is_l3(word: str) -> bool:
    count = len(word) // 3
    if count == 0 or len(word) != 3 * count:
        return False
    return word == "a" * count + "b" * count + "c" * count


def membership(language: LanguageId, word: str) -> bool:
    """Exact membership by direct decision procedure."""
    alphabet = language.alphabet
    if not set(word) <= set(alphabet):
        foreign = next(s for s in word if s not in alphabet)
        raise ValueError(f"symbol {foreign!r} is not in the {language.value} alphabet")
    if language is LanguageId.L1_REGEX:
        return _match_l1_regex(word)
    if language is LanguageId.L1_PROSE:
        return "a" in word and "b" in word
    if language is LanguageId.L2_DYCK:
        depth = 0
        for symbol in word:
            depth += 1 if symbol == "(" else -1
            if depth < 0:
                return False
        return depth == 0
    if language is LanguageId.L2_COUNT:
        return word.count("(") == word.count(")")
    return _is_l3(word)


# --- deterministic multi-stack pushdown simulation -------------------------

StackAction = tuple[bool, tuple[str, ...]]  # (pop the top, symbols to push)
PdaKey = tuple[str, str | None, tuple[str | None, ...]]
PdaMove = tuple[str, tuple[StackAction, ...]]


@dataclass(frozen=True)
class MultiStackPda:
    """Deterministic pushdown machine with any number of stacks.

    A transition is keyed by (state, consumed symbol or None for epsilon,
    tuple of stack tops with None meaning empty).  Acceptance requires the
    whole input consumed, an accepting state and every stack empty.
    """

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    n_stacks: int
    initial_state: str
    accept_states: frozenset[str]
    transitions: dict[PdaKey, PdaMove]


def run_pda(pda: MultiStackPda, word: str) -> bool:
    """Simulate the machine; raises NondeterministicPdaError on ambiguity."""
    state = pda.initial_state
    stacks: list[list[str]] = [[] for _ in range(pda.n_stacks)]
    position = 0
    budget = 4 * (len(word) + 4)
    while budget > 0:
        budget -= 1
        tops = tuple(stack[-1] if stack else None for stack in stacks)
        moves = []
        if position < len(word):
            key = (state, word[position], tops)
            if key in pda.transitions:
                moves.append((key, True))
        eps_key = (state, None, tops)
        if eps_key in pda.transitions:
            moves.append((eps_key, False))
        if len(moves) > 1:
            raise NondeterministicPdaError(
                f"two transitions apply in state {state!r} at position {position}"
            )
        if not moves:
            break
        key, consumed = moves[0]
        state, actions = pda.transitions[key]
        for stack, (pop, push) in zip(stacks, actions):
            if pop:
                stack.pop()
            stack.extend(push)
        if consumed:
            position += 1
    else:
        raise ValueError("pushdown run exceeded its step budget (epsilon cycle?)")
    return (
        position == len(word)
        and state in pda.accept_states
        and all(not stack for stack in stacks)
    )


def dyck_pda() -> MultiStackPda:
    """One-stack machine for well-nested parentheses."""
    return MultiStackPda(
        states=("s",),
        input_alphabet=("(", ")"),
        n_stacks=1,
        initial_state="s",
        accept_states=frozenset({"s"}),
        transitions={
            ("s", "(", (None,)): ("s", ((False, ("X",)),)),
            ("s", "(", ("X",)): ("s", ((False, ("X",)),)),
            ("s", ")", ("X",)): ("s", ((True, ()),)),
        },
    )


def l3_pda() -> MultiStackPda:
    """Two-stack machine for equal a, b, c counts in block order."""
    keep: StackAction = (False, ())
    pop: StackAction = (True, ())
    return MultiStackPda(
        states=("sa", "sb", "sc"),
        input_alphabet=("a", "b", "c"),
        n_stacks=2,
        initial_state="sa",
        accept_states=frozenset({"sc"}),
        transitions={
            ("sa", "a", (None, None)): ("sa", ((False, ("A",)), keep)),
            ("sa", "a", ("A", None)): ("sa", ((False, ("A",)), keep)),
            ("sa", "b", ("A", None)): ("sb", (pop, (False, ("B",)))),
            ("sb", "b", ("A", "B")): ("sb", (pop, (False, ("B",)))),
            ("sb", "c", (None, "B")): ("sc", (keep, pop)),
            ("sc", "c", (None, "B")): ("sc", (keep, pop)),
        },
    )


# --- differential sweep -----------------------------------------------------

MAX_SWEEP_LEN = 14


@dataclass(frozen=True)
class Mismatch:
    word: str
    machine_accepts: bool
    oracle_accepts: bool
    p_accept: float
    p_reject: float


@dataclass(frozen=True)
class BoundViolation:
    word: str
    requirement: str
    p_accept: float
    p_reject: float


@dataclass(frozen=True)
class DiscrepancyReport:
    """Differential comparison of a machine against a language oracle.

    The machine verdict is accept exactly when p_accept exceeds 1/2.  When
    the oracle matches the machine family the advertised error bounds are
    evaluated as well; violations are data for the report, never an
    exception.
    """

    language: str
    machine: str
    n_paths: int
    max_len: int
    total_words: int
    mismatches: tuple[Mismatch, ...]
    bound_checked: bool
    bound_violations: tuple[BoundViolation, ...]

    def to_json_obj(self) -> dict:
        return {
            "language": self.language,
            "machine": self.machine,
            "N": self.n_paths,
            "max_len": self.max_len,
            "total_words": self.total_words,
            "mismatch_count": len(self.mismatches),
            "mismatches": [vars(m) for m in self.mismatches],
            "bound_checked": self.bound_checked,
            "bound_violations": [vars(v) for v in self.bound_violations],
        }


def words_up_to(alphabet: tuple[str, ...], max_len: int):
    """All words over `alphabet` of length <= max_len, shortest first."""
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield "".join(letters)


def sweep_compare(
    spec: TwoWayQfaSpec, language: LanguageId, max_len: int
) -> DiscrepancyReport:
    """Exhaustively compare machine verdicts with an oracle up to max_len."""
    if max_len < 0:
        raise ValueError(f"max_len {max_len} is negative")
    if max_len > MAX_SWEEP_LEN:
        raise ValueError(f"max_len {max_len} exceeds the sweep cap {MAX_SWEEP_LEN}")
    if not set(language.alphabet) <= set(spec.input_alphabet):
        raise ValueError(
            f"machine alphabet {spec.input_alphabet} cannot read {language.value} words"
        )

    check_bounds = (
        spec.name == "m2" and language in (LanguageId.L2_DYCK, LanguageId.L2_COUNT)
    ) or (spec.name == "m3" and language is LanguageId.L3)
    bound = 1.0 - 1.0 / spec.n_paths - 1e-6 if spec.n_paths > 1 else 0.0

    mismatches: list[Mismatch] = []
    violations: list[BoundViolation] = []
    total = 0
    for word in words_up_to(language.alphabet, max_len):
        total += 1
        result = run(spec, word)
        machine_accepts = result.p_accept > 0.5
        oracle_accepts = membership(language, word)
        if machine_accepts != oracle_accepts:
            mismatches.append(
                Mismatch(word, machine_accepts, oracle_accepts,
                         result.p_accept, result.p_reject)
            )
        if check_bounds:
            if oracle_accepts and result.p_accept < 1.0 - 1e-6:
                violations.append(
                    BoundViolation(word, "member accepted with probability 1",
                                   result.p_accept, result.p_reject)
                )
            if not oracle_accepts and result.p_reject < bound:
                violations.append(
                    BoundViolation(word, f"non-member rejected with probability {bound:.6f}",
                                   result.p_accept, result.p_reject)
                )
    return DiscrepancyReport(
        language=language.value,
        machine=spec.name or "custom",
        n_paths=spec.n_paths,
        max_len=max_len,
        total_words=total,
        mismatches=tuple(mismatches),
        bound_checked=check_bounds,
        bound_violations=tuple(violations),
    )
