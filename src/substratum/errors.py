"""Exception taxonomy shared by all substratum modules."""


class SubstratumError(Exception):
    """Base class for every error raised by this package."""


class InputError(SubstratumError):
    """Malformed input data (CLI exit code 1)."""


class BadAlphabet(InputError):
    pass


class UnknownLetter(InputError):
    pass


class RuleLengthMismatch(InputError):
    pass


class BadSeed(InputError):
    pass


class BadBase(InputError):
    pass


class NonCanonical(InputError):
    pass


class DigitOutOfRange(InputError):
    pass


class SeedMissing(InputError):
    pass


class Overflow(SubstratumError):
    """A size budget was exceeded (see SUBSTRATUM_BUDGET)."""


class StateExplosion(Overflow):
    """An automaton construction exceeded the state budget."""


class Refusal(SubstratumError):
    """Analysis preconditions unmet (CLI exit code 2)."""


class NotToeplitz(Refusal):
    """The substitution has no coincidence (column number > 1)."""


class NontrivialHeight(Refusal):
    """Height exceeds 1; the pure base construction is not provided."""


class WindowTooShort(SubstratumError):
    pass


class IndexOutOfWindow(SubstratumError):
    pass
