"""Exception types shared across the package."""


class MulComError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(MulComError, ValueError):
    """Tensor extents do not conform for the requested operation."""


class ConfigError(MulComError, ValueError):
    """A configuration value is invalid or inconsistent."""


class ValidationError(MulComError, ValueError):
    """Input data violates a documented invariant."""


class EmptyDocumentError(MulComError, ValueError):
    """`streams.attend` got a view with no positions (`FeatureDoc` rejects a doc with none)."""


class DataFormatError(MulComError, ValueError):
    """A file could not be read, parsed, accepted or written.

    `mulcom.ioutil` raises it for every JSON file the package reads or
    writes (it owns reading, the format and version envelope, and
    writing); the loaders raise it for content they reject. `path` and
    `line` locate the offending file and record when known.
    """

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f" ({path}" + (f":{line}" if line is not None else "") + ")"
        super().__init__(message + loc)
        self.path = path
        self.line = line
