"""Exception hierarchy shared by all modules."""


class TdtError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(TdtError):
    """A file does not parse under its declared on-disk format."""


class ValidationError(TdtError):
    """Arguments or identifiers violate a documented precondition."""


class CapacityError(TdtError):
    """An input exceeds a documented size cap (program count, face budget)."""


class EmptyScreenError(TdtError):
    """Every program was removed by the singleton screen."""


class InconsistentDiagramError(TdtError):
    """An operation requiring a consistent diagram was given an inconsistent one."""


class ConfigurationError(TdtError):
    """A run configuration is unusable before any execution starts."""
