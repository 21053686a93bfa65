"""Exception taxonomy shared across the pipeline: one class per exit code.

Every error raised on purpose by this package derives from SentiPipeError
and carries the CLI exit code of its class:

- ConfigError, 2: a flag, config value or override is invalid;
- SchemaError and ValidationError, 4: an input does not have the expected
  structure, or well-formed data breaks a semantic invariant (callers
  re-raise one as the other, so they share a code);
- DegenerateData, 5: the data is valid but degenerate for the stage (a
  single-class training set, an ad with no scored frame).

Plain OSError is left alone and exits 3: file system problems are reported
by the standard library better than a wrapper would.
"""


class SentiPipeError(Exception):
    """Base class for all deliberate pipeline errors; never raised itself.
    Each subclass sets its exit_code."""

    exit_code: int


class ConfigError(SentiPipeError):
    """A configuration value or override is invalid."""

    exit_code = 2


class SchemaError(SentiPipeError):
    """A file or payload does not have the expected structure."""

    exit_code = 4


class ValidationError(SentiPipeError):
    """Structurally well-formed data violates a semantic invariant."""

    exit_code = 4


class DegenerateData(SentiPipeError):
    """Valid data that cannot feed the stage: one class, no frames, no gap."""

    exit_code = 5
