"""Exception types shared across the package."""


class HvnetError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(HvnetError, ValueError):
    """Operands have incompatible lengths or shapes."""


class InvalidParameterError(HvnetError, ValueError):
    """A parameter is outside its documented domain."""


class SingularKeyError(HvnetError, ValueError):
    """A key hypervector has a (near-)zero spectral component, so no exact inverse exists."""


class SingularSystemError(HvnetError, ValueError):
    """The unregularized normal equations are singular; advise a positive ridge parameter."""


class InsufficientDataError(HvnetError, ValueError):
    """Fewer samples than agents, so some shard would be empty."""


class ProtocolError(HvnetError, ValueError):
    """Agents presented inconsistently shaped or typed payloads during exchange."""


class ParseError(HvnetError, ValueError):
    """A data file contains a cell that cannot be interpreted."""


class InvalidDatasetError(HvnetError, ValueError):
    """A loaded dataset violates a structural requirement (e.g. a single class)."""


class UndefinedCorrelationError(HvnetError, ValueError):
    """Pearson correlation requested for a zero-variance sequence."""


class PairingError(HvnetError, ValueError):
    """Result records cannot be matched up (e.g. a local record without its distributed twin)."""


class SuiteError(HvnetError, RuntimeError):
    """An experiment suite aborted; the failing seed is identified in the message."""


class EmptyClassWarning(UserWarning):
    """A class had no training samples; its classifier row is all-zero."""


class StratificationWarning(UserWarning):
    """A split was downgraded to unstratified because some class is too small."""


class KeyCorrelationWarning(UserWarning):
    """A generated key set has an unusually correlated pair of keys."""
