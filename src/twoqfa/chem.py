"""Chemical recipe transcription and qualitative outcome signatures.

Three bench protocols act as input encoders: a precipitation protocol over
{a, b}, an acid/base titration over parentheses, and an oscillating-reaction
protocol over {a, b, c}.  A recipe is an ordered list of aliquot species
names; transcription maps each aliquot to one input symbol, so it is a
homomorphism on concatenation.  No chemistry is simulated; the signature
strings are fixed vocabulary for the observable outcome of a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import RunResult
from .errors import RecipeError

RESIDUAL_SIGNATURE_THRESHOLD = 1e-6


class ReactionSystem(Enum):
    PRECIPITATION = "PRECIPITATION"
    ACID_BASE = "ACID_BASE"
    BZ = "BZ"

    @property
    def accept_signature(self) -> str:
        return _SIGNATURES[self][0]

    @property
    def reject_signature(self) -> str:
        return _SIGNATURES[self][1]


# Canonical species with spelled-out synonyms; lookups are case-insensitive
# and tolerate a superscript minus in the bromate ion.
_SPECIES: dict[ReactionSystem, tuple[tuple[str, str], ...]] = {
    ReactionSystem.PRECIPITATION: (
        ("KIO3", "a"),
        ("potassium iodate", "a"),
        ("AgNO3", "b"),
        ("silver nitrate", "b"),
    ),
    ReactionSystem.ACID_BASE: (
        ("malonic acid", "("),
        ("MA", "("),
        ("NaOH", ")"),
        ("sodium hydroxide", ")"),
    ),
    ReactionSystem.BZ: (
        ("BrO3-", "a"),
        ("bromate", "a"),
        ("malonic acid", "b"),
        ("MA", "b"),
        ("NaOH", "c"),
        ("sodium hydroxide", "c"),
    ),
}

_SIGNATURES: dict[ReactionSystem, tuple[str, str]] = {
    ReactionSystem.PRECIPITATION: ("AgIO3 precipitate present", "solution clear"),
    ReactionSystem.ACID_BASE: ("lightest gray tone", "darkest gray tone"),
    ReactionSystem.BZ: ("sustained color oscillations", "no sustained oscillation"),
}


def _normalize(name: str) -> str:
    return " ".join(name.replace("⁻", "-").casefold().split())


def _lookup_table(system: ReactionSystem) -> dict[str, str]:
    return {_normalize(name): symbol for name, symbol in _SPECIES[system]}


@dataclass(frozen=True)
class Recipe:
    """An ordered sequence of aliquot species names for one bench protocol."""

    system: ReactionSystem
    aliquots: tuple[str, ...]


def parse_recipe(text: str) -> Recipe:
    """Parse the one-aliquot-per-line format.

    The first non-blank line is a header naming the reaction system,
    optionally prefixed with "system:".  Blank lines and lines starting
    with ';' are skipped.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith(";")
    ]
    if not lines:
        raise RecipeError("recipe has no header line naming the reaction system")
    header = lines[0]
    if header.lower().startswith("system:"):
        header = header[len("system:"):].strip()
    try:
        system = ReactionSystem[header.upper().replace(" ", "_").replace("-", "_")]
    except KeyError:
        known = ", ".join(s.value for s in ReactionSystem)
        raise RecipeError(
            f"unknown reaction system {header!r} (expected one of: {known})"
        ) from None
    return Recipe(system=system, aliquots=tuple(lines[1:]))


def transcribe(recipe: Recipe) -> str:
    """Map each aliquot to its input symbol, preserving order and length."""
    table = _lookup_table(recipe.system)
    symbols = []
    for index, name in enumerate(recipe.aliquots, start=1):
        symbol = table.get(_normalize(name))
        if symbol is None:
            raise RecipeError(
                f"unknown species {name!r} at aliquot {index} "
                f"for system {recipe.system.value}"
            )
        symbols.append(symbol)
    return "".join(symbols)


@dataclass(frozen=True)
class Signature:
    """Qualitative outcome of a run, phrased as the bench observable."""

    system: ReactionSystem
    verdict: str
    descriptor: str
    p_accept: float
    p_reject: float


def signature(system: ReactionSystem, result: RunResult) -> Signature:
    """Render a run outcome as the protocol's observable signature.

    The verdict follows the majority threshold on p_accept.  A run that
    kept non-negligible residual mass (or never halted) gets an
    indeterminate descriptor instead of a definite observable.
    """
    accepts = result.p_accept > 0.5
    verdict = "accept" if accepts else "reject"
    if result.p_residual > RESIDUAL_SIGNATURE_THRESHOLD or not result.halted:
        descriptor = f"indeterminate (residual mass {result.p_residual:.3g})"
    else:
        descriptor = system.accept_signature if accepts else system.reject_signature
    return Signature(
        system=system,
        verdict=verdict,
        descriptor=descriptor,
        p_accept=result.p_accept,
        p_reject=result.p_reject,
    )
