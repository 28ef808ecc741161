"""Error types shared across the package.

ConfigError maps to CLI exit code 2, DataError to exit code 3.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(ValueError):
    """Missing, malformed or insufficient input data."""


class ParseError(DataError):
    """Malformed log line; message carries file and line number."""

    def __init__(self, path, lineno, reason):
        self.path = str(path)
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"{self.path}:{lineno}: {reason}")

    def __reduce__(self):  # a detect worker sends it back to the parent pickled
        return type(self), (self.path, self.lineno, self.reason)
