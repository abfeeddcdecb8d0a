"""Exception types shared across the package, and the budget check."""


class DatawordsError(Exception):
    pass


class EmptyWord(DatawordsError):
    pass


class NotAPartition(DatawordsError):
    pass


class UnknownLetter(DatawordsError):
    pass


class PositionOutOfRange(DatawordsError):
    pass


class ForeignValuation(DatawordsError):
    """A register valuation refers to a class that the word does not have."""


class UnboundVariable(DatawordsError):
    pass


class ParseError(DatawordsError):
    """Syntax error in one of the text formats, with a character position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at {position})")
        self.message = message
        self.position = position


class UnknownAtom(ParseError):
    pass


class NotASentence(DatawordsError):
    pass


class NotSimpleFragment(DatawordsError):
    pass


class NotTwoVariable(DatawordsError):
    pass


class WrongFreeVariable(DatawordsError):
    pass


class ClassMismatch(DatawordsError):
    """An automaton does not belong to the class an operation requires."""


class UnsupportedClassCombination(DatawordsError):
    pass


class StateSpaceBudgetExceeded(DatawordsError):
    pass


class PreconditionViolation(DatawordsError):
    pass


class CertificateError(DatawordsError):
    """A decider's certificate failed its independent replay."""


def check_budget(budget, name: str = "budget") -> None:
    """Refuse a budget that is not an ``int`` of at least 1: no search can
    spend it."""
    if not isinstance(budget, int) or budget < 1:
        raise PreconditionViolation(f"{name} {budget!r} is not an int of at least 1")
