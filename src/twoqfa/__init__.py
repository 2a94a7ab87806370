"""Simulation engine for two-way quantum finite automata.

The package builds and runs machines whose head may move both ways over a
circular tape "# w $", with a projective accept/reject measurement after
every unitary step.  Three bundled machines recognize a regular language
over {a, b}, balanced parentheses via an N-path split, and the pattern
a^n b^n c^n; classical oracles and a chemical recipe front end support
differential testing and bench-protocol style reporting.
"""

from types import ModuleType as _ModuleType

from .baselines import (
    BoundViolation,
    DiscrepancyReport,
    LanguageId,
    Mismatch,
    MultiStackPda,
    dyck_pda,
    l3_pda,
    membership,
    run_pda,
    sweep_compare,
    words_up_to,
)
from .chem import (
    ReactionSystem,
    Recipe,
    Signature,
    parse_recipe,
    signature,
    transcribe,
)
from .core import (
    DEFAULT_HALT_THRESHOLD,
    AmplitudeVector,
    Configuration,
    RunResult,
    initial_vector,
    measure,
    run,
    step,
)
from .errors import (
    AlphabetError,
    NondeterministicPdaError,
    RecipeError,
    SpecFormatError,
    TableCompletionError,
)
from .machine import (
    DEFAULT_TOLERANCE,
    Columns,
    PartialTable,
    TwoWayQfaSpec,
    WellFormednessReport,
    amplitude_of,
    complete_partial_table,
    validate,
)
from .machines import build, build_m1, build_m2, build_m3, qft_matrix
from .specfile import dumps_spec, load_spec, loads_spec, save_spec

__version__ = "1.0.0"

#: the names imported above, which are the public API; the submodules are not
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
