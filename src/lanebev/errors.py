"""Exception types shared across the library: the base LaneBevError and 13
subclasses, one class per kind of fault.

Every domain failure raises a subclass of LaneBevError so callers (and the
CLI) can distinguish expected error conditions from bugs.  One rule sorts
the faults of a value, in constructors and files alike, each message
starting with `Class.field:`, for a function argument `function.arg:`, or
for a file's value its key path:

  ShapeMismatch            a wrong shape, or shapes that disagree
  NonFiniteInput           NaN or infinity where finite values are needed
  InvalidValue             a value outside its allowed range
  MissingField             a JSON file's layout or type problem

The other classes each name one fault that the rule above does not cover:

  EmptyInput               an empty collection where one item is needed
  TooManyInstances         more lane instances than can be separated
  InsufficientRank         a least-squares system left underdetermined
  DegenerateDepth          a point at non-positive depth before a camera
  DegenerateConfiguration  two rigs that fix no ground-plane homography
  SingularHomography       a homography matrix that cannot be inverted
  TensorFormatError        a .bldt tensor file that cannot be read
  ImageFormatError         a PGM/PPM file that cannot be read
  MalformedJson            bytes that are not UTF-8 JSON text
"""

import numbers

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
    """Unregularized least-squares system is underdetermined: fewer pairs
    than unknowns, or a rank-deficient design matrix."""


# --- files ---

class TensorFormatError(LaneBevError):
    """A .bldt file has a bad magic, version or rank, a header, dims or
    payload cut short, or changed size while it was read."""


class ImageFormatError(LaneBevError, ValueError):
    """A PGM/PPM file has a bad magic number, header or pixel payload."""


class MalformedJson(LaneBevError):
    """Input is not valid JSON."""


class MissingField(LaneBevError):
    """A JSON file's layout or type problem: a required field is absent or
    null, an unknown one is present, or a value is not the JSON type its
    field takes (a string or boolean for a number, a ragged list).  The one
    class for it in every file, configs included; the message starts with
    the key path, such as `lanes[2].id:` or `GridSpec.cell:`."""


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


def _int_field(owner: str, value, low: int) -> None:
    """Raise InvalidValue naming `owner` unless `value` is an integer (bool
    refused, numpy integers taken) of at least `low`."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low):
        raise InvalidValue(f"{owner}: must be an integer >= {low}, got {value!r}")
