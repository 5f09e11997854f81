"""Exception hierarchy shared by all metrika modules."""


class MetrikaError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------- logic


class FormulaSyntaxError(MetrikaError):
    def __init__(self, message, position=None, expected=None):
        self.position = position
        self.expected = expected
        detail = message
        if position is not None:
            detail += f" (at position {position}"
            if expected:
                detail += f", expected {expected}"
            detail += ")"
        super().__init__(detail)


class UnknownRelationError(MetrikaError):
    pass


class ArityMismatchError(MetrikaError):
    pass


class ConstantOutOfRangeError(MetrikaError):
    pass


class FreeVariableInConditionError(MetrikaError):
    pass


# ------------------------------------------------------------ structures


class ExtensionViolatesAxiomsError(MetrikaError):
    def __init__(self, report):
        self.report = report
        first = report.violations[0] if report.violations else None
        super().__init__(f"extension violates structure axioms: {first}")


# ------------------------------------------------------------ evaluation


class UnboundVariableError(MetrikaError):
    pass


class NotPrenexUnsupportedError(MetrikaError):
    pass


# ---------------------------------------------------------------- polish


class IndexOutOfPrefixError(MetrikaError):
    pass


# --------------------------------------------------------------- urysohn


class SizeMismatchError(MetrikaError):
    pass


# ----------------------------------------------------------------- synth


class SeedViolatesTheoryError(MetrikaError):
    pass


# -------------------------------------------------------------- sampling


class RejectionBudgetExceededError(MetrikaError):
    pass


# ------------------------------------------------------------------- cli


class SchemaMismatchError(MetrikaError):
    pass
