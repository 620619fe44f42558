"""Analysis toolkit for constant-length substitutions.

Builds the minimal direct- and reverse-reading automata generating a
substitution's two-sided fixed point, computes its transformation semigroup
and ell-kernel, and, for coincidence substitutions, decides which indices of
the fixed point are periodic versus aperiodic — everything cross-validated
against a brute-force oracle.
"""

from .automata import (
    Dfao,
    EquivalenceResult,
    build_direct,
    build_reverse_semigroup,
    equivalent,
    minimize,
    reverse_and_determinize,
)
from .digits import DigitString, pad, to_digits, to_int
from .errors import (
    BadAlphabet,
    BadBase,
    BadSeed,
    DigitOutOfRange,
    IndexOutOfWindow,
    InputError,
    NonCanonical,
    NontrivialHeight,
    NotToeplitz,
    Overflow,
    Refusal,
    RuleLengthMismatch,
    SeedMissing,
    StateExplosion,
    SubstratumError,
    UnknownLetter,
    WindowTooShort,
)
from .kernel import (
    KernelElement,
    brute_force_kernel,
    brute_force_kernel_for,
    enumerate_kernel,
)
from .oracle import Window, expand, sample_progression, window_for_range
from .semigroup import SemigroupClosure, StructureSemigroup, closure, structure_semigroup
from .substitution import Alphabet, ColumnMap, Substitution
from .toeplitz import (
    CycleInfo,
    PeriodicityVerdict,
    RangeReport,
    ReducedGraph,
    aperiodic_in_range,
    decide_per,
    reduced_graph,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ColumnMap",
    "Substitution",
    "DigitString",
    "to_digits",
    "to_int",
    "pad",
    "Dfao",
    "EquivalenceResult",
    "build_direct",
    "build_reverse_semigroup",
    "reverse_and_determinize",
    "minimize",
    "equivalent",
    "SemigroupClosure",
    "StructureSemigroup",
    "closure",
    "structure_semigroup",
    "KernelElement",
    "enumerate_kernel",
    "brute_force_kernel",
    "brute_force_kernel_for",
    "Window",
    "expand",
    "window_for_range",
    "sample_progression",
    "PeriodicityVerdict",
    "RangeReport",
    "ReducedGraph",
    "CycleInfo",
    "decide_per",
    "aperiodic_in_range",
    "reduced_graph",
    "SubstratumError",
    "InputError",
    "BadAlphabet",
    "UnknownLetter",
    "RuleLengthMismatch",
    "BadSeed",
    "BadBase",
    "NonCanonical",
    "DigitOutOfRange",
    "SeedMissing",
    "Overflow",
    "StateExplosion",
    "Refusal",
    "NotToeplitz",
    "NontrivialHeight",
    "WindowTooShort",
    "IndexOutOfWindow",
]
