import substratum

PUBLIC_NAMES = {
    # substitutions and digits
    "Alphabet", "ColumnMap", "Substitution", "to_digits", "to_int",
    # automata
    "Dfao", "EquivalenceResult", "build_direct", "build_reverse_semigroup",
    "reverse_and_determinize", "minimize", "equivalent",
    # semigroups and kernels
    "SemigroupClosure", "StructureSemigroup", "closure", "structure_semigroup",
    "KernelElement", "enumerate_kernel", "brute_force_kernel", "brute_force_kernel_for",
    # the window oracle
    "Window", "expand", "window_for_range", "sample_progression",
    # Toeplitz structure
    "PeriodicityVerdict", "RangeReport", "ReducedGraph", "CycleInfo",
    "decide_per", "aperiodic_in_range", "reduced_graph",
    # errors
    "SubstratumError", "InputError", "BadAlphabet", "UnknownLetter", "RuleLengthMismatch",
    "BadSeed", "BadBase", "DigitOutOfRange", "SeedMissing", "Overflow",
    "StateExplosion", "Refusal", "NotToeplitz", "NontrivialHeight", "WindowTooShort",
    "IndexOutOfWindow",
}


def test_star_import_and_all_resolve():
    namespace: dict = {}
    exec("from substratum import *", namespace)
    for name in substratum.__all__:
        assert name in namespace
        assert getattr(substratum, name) is namespace[name]


def test_public_surface_is_pinned():
    # a name added to or dropped from the package's surface shows up here
    assert len(substratum.__all__) == len(set(substratum.__all__)) == 47
    assert set(substratum.__all__) == PUBLIC_NAMES
