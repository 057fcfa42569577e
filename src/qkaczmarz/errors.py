"""Exception hierarchy shared across the package."""


class QkzError(Exception):
    """Base class for all package errors."""


class ZeroRow(QkzError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"row {index} has (near-)zero norm and cannot be normalized")


class DimensionMismatch(QkzError):
    pass


class ParseError(QkzError):
    def __init__(self, line, message="malformed Matrix Market data"):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnsupportedField(QkzError):
    pass


class InvalidDualPair(QkzError):
    pass


class DegenerateDirection(QkzError):
    pass


class EmptyInput(QkzError):
    pass


class EmptyAcceptableSet(QkzError):
    pass


class Diverged(QkzError):
    def __init__(self, k):
        self.k = k
        super().__init__(f"the iterate or its distance to x_hat is not finite after "
                         f"iteration {k}: the method diverged (try a smaller stepsize)")


class InvalidBundle(QkzError):
    pass


class SpecInvalid(QkzError):
    pass


class ConfigInvalid(QkzError):
    pass


class ParameterOrderViolation(QkzError):
    pass


class MissingGroundTruth(QkzError):
    pass


class ZeroGroundTruth(QkzError):
    pass


class BudgetExceeded(QkzError):
    pass


class DegenerateSelection(QkzError):
    pass
