"""Exception types shared across the library.

Every domain failure raises a subclass of LaneBevError so callers (and the
CLI) can distinguish expected error conditions from bugs.  One rule
sorts them, in constructors and files alike: a wrong shape is
ShapeMismatch, NaN or infinity is NonFiniteInput and a value out of range
is InvalidValue, each message starting with `Class.field:`, for a
function argument `function.arg:`, or for a file's value its key path;
a file's layout or type problem is MissingField.
"""

import numpy as np


class LaneBevError(Exception):
    """Base class for all library errors."""


class InvalidValue(LaneBevError, ValueError):
    """A value lies outside its allowed range.  The message starts with the
    field, as `Class.field:` or, for a function argument, `function.arg:`."""


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

class ShapeMismatch(LaneBevError, ValueError):
    """Array shapes are inconsistent with each other or with the grid."""


class NonFiniteInput(LaneBevError):
    """A tensor holds NaN or infinite values where finite ones are needed."""


class TooManyInstances(LaneBevError):
    """More lane instances than the embedding dimension can separate, or than
    the embedding loss takes."""


class InsufficientRank(LaneBevError):
    """Unregularized least-squares system is underdetermined."""


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
    """A JSON file's layout or type problem: a required field is absent or
    null, an unknown one is present, or a value is not the JSON type its
    field takes (a string or boolean for a number, a ragged list).  The one
    class for it in every file, configs included; the message starts with
    the key path, such as `lanes[2].id:` or `GridSpec.cell:`."""


class NonOrthonormalRotation(FrameParseError):
    """Frame extrinsic rotation fails the orthonormality check."""


def _array_field(owner: str, value, shape: tuple[int | None, ...], *, finite: bool = True, dtype=float) -> np.ndarray:
    """`value` as an array of `dtype` (None keeps its own), without a copy
    when it already is one, checked for one array field named `owner`.

    Raises ShapeMismatch unless its shape is `shape`, where None matches any
    length, and, when `finite`, NonFiniteInput on NaN or infinity; either
    message starts with `owner`, such as `Lane3D.points`.
    """
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim != len(shape) or any(n is not None and n != got for got, n in zip(arr.shape, shape)):
        raise ShapeMismatch(f"{owner}: shape {arr.shape} differs from {str(shape).replace('None', '*')}")
    if finite and not np.isfinite(arr).all():
        raise NonFiniteInput(f"{owner}: holds NaN or infinite values")
    return arr
