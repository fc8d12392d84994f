"""Exception types shared across the library.

Every domain failure raises a subclass of LaneBevError so callers (and the
CLI) can distinguish expected error conditions from bugs.
"""


class LaneBevError(Exception):
    """Base class for all library errors."""


# --- camera geometry ---

class DegenerateDepth(LaneBevError):
    """A point projects with non-positive (or numerically zero) depth."""


class EmptyInput(LaneBevError):
    """An operation requiring a non-empty collection got an empty one."""


class MixedImageSizes(LaneBevError):
    """Rigs being averaged do not share a common image size."""


class DegenerateConfiguration(LaneBevError):
    """Two rigs do not determine a ground-plane homography: a camera centre
    lies on the ground plane, a camera's ground map G = K [r1 r2 t] cannot
    be inverted, or G_dst G_src^-1 cannot be normalized."""


class SingularHomography(LaneBevError):
    """Homography matrix is not invertible."""


# --- grids / losses / transforms ---

class ShapeMismatch(LaneBevError):
    """Array shapes are inconsistent with each other or with the grid."""


class NonFiniteInput(LaneBevError):
    """A tensor holds NaN or infinite values where finite ones are needed."""


class TooManyInstances(LaneBevError):
    """More lane instances than the embedding dimension can separate, or than
    the embedding loss takes."""


class InsufficientRank(LaneBevError):
    """Unregularized least-squares system is underdetermined."""


class DegenerateAbscissae(LaneBevError):
    """Curve fit requested on points whose x values are all identical."""


# --- tensor file format ---

class TensorFormatError(LaneBevError):
    """Base class for binary tensor file errors."""


class BadMagic(TensorFormatError):
    """File does not start with the expected magic bytes."""


class UnsupportedVersion(TensorFormatError):
    """File declares a format version this reader does not understand."""


class TruncatedPayload(TensorFormatError):
    """Payload length does not match the declared dimensions."""


# --- images ---

class ImageFormatError(LaneBevError, ValueError):
    """A PGM/PPM file has a bad magic number, header or pixel payload."""


# --- dataset parsing ---

class FrameParseError(LaneBevError):
    """Base class for annotation-frame parsing errors."""


class MalformedJson(FrameParseError):
    """Input is not valid JSON."""


class MissingField(FrameParseError):
    """A required field is absent or has an unusable value."""


class NonOrthonormalRotation(FrameParseError):
    """Frame extrinsic rotation fails the orthonormality check."""


# --- configuration files ---

class ConfigError(LaneBevError):
    """A config file is not a JSON object, or has an unknown key or a value of the wrong type."""
