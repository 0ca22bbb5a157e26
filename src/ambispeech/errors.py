"""Exception taxonomy shared across the package.

ValueError subclasses signal misuse of the API (bad shapes, bad config);
DataError covers unreadable or malformed external inputs. The CLI maps
DataError to exit code 1 and ConfigError-family failures to exit code 2.
"""


class ShapeError(ValueError):
    """Operands have incompatible or unsupported shapes."""


class DegenerateMaskError(ValueError):
    """A mask row selects nothing, so normalization is undefined."""


class EmptyInputError(ValueError):
    """An input that must be non-empty is empty."""


class ConfigError(ValueError):
    """A configuration value or combination is invalid."""


class ModalityError(ConfigError):
    """Inputs supplied to a model do not match its modality."""


class NonFiniteError(ConfigError):
    """Training produced a non-finite loss or gradient; message names the epoch and batch."""


class LabelError(ValueError):
    """A class label is outside the known label set."""


class DataError(Exception):
    """An external file is missing, unreadable, or malformed."""


class ManifestError(DataError):
    """A dataset manifest failed to parse; message names the line."""
