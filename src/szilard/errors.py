"""Exception types raised across the library.

Every public error carries a stable class name that the CLI reports as its
machine-readable ``code`` field.
"""


class SzilardError(Exception):
    """Base class for all library errors."""


class NotNormalized(SzilardError):
    pass


class BadOutcomeLength(SzilardError):
    pass


class NegativeProbability(SzilardError):
    pass


class SupportOverflow(SzilardError):
    pass


class WeightSumError(SzilardError):
    pass


class MixedArity(SzilardError):
    pass


class IndexOutOfRange(SzilardError):
    pass


class NotBijective(SzilardError):
    pass


class ArityMismatch(SzilardError):
    pass


class BadEpsilon(SzilardError):
    pass


class BiasedBitsPresent(SzilardError):
    pass


class NonpositiveTemperature(SzilardError):
    pass


class InvalidBets(SzilardError):
    pass


class BadBetSize(SzilardError):
    pass


class BadSampleCount(SzilardError):
    pass


class BadSeed(SzilardError):
    pass


class BadNList(SzilardError):
    pass


class TooLarge(SzilardError):
    pass


class UnreadableSpecFile(SzilardError):
    pass


class UsageError(SzilardError):
    """A command line that argparse rejects: unknown command, flag or value."""


class ParseError(SzilardError):
    """Input-spec syntax or semantic error, annotated with source position."""

    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
