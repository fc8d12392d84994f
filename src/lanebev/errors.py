"""Exception types shared across the library: the base LaneBevError and 13
subclasses, one class per kind of fault.

Every domain failure raises a subclass of LaneBevError so callers (and the
CLI) can distinguish expected error conditions from bugs.  One rule sorts
the faults of a value, in constructors and files alike, each message
starting with `Class.field:`, for a function argument `function.arg:`, or
for a file's value its key path:

  ShapeMismatch            a wrong shape, or shapes that disagree
  NonFiniteInput           NaN or infinity where finite values are needed
  InvalidValue             a value outside its range, or of the wrong type
  MissingField             a JSON file's layout or type problem

Every number is checked by one predicate, `_number_type` (never a bool, a
string or None), through `_scalar_field`, `_array_field` or `_numbers`, and
every object argument by `_object_field` (a list of objects by
`_object_list`), so a value of the wrong type is InvalidValue, never a bare
Python error.  Each public dataclass field declares its rule once (`_Rule`),
which `_Declared.__post_init__` applies in field order and the file readers
and the CLI's --schema read.

The other classes each name one fault that the rule above does not cover:

  EmptyInput               an empty collection where one item is needed
  TooManyInstances         more lane instances than can be separated
  InsufficientRank         a least-squares system left underdetermined
  DegenerateDepth          a point at non-positive depth before a camera
  DegenerateConfiguration  two rigs that fix no ground-plane homography
  SingularHomography       a homography matrix that cannot be inverted
  TensorFormatError        an .npy tensor file that cannot be read
  ImageFormatError         a PGM/PPM file that cannot be read
  MalformedJson            bytes that are not UTF-8 JSON text
"""

import dataclasses
import functools
import math
import numbers
from dataclasses import MISSING
from itertools import chain

import numpy as np


class LaneBevError(Exception):
    """Base class for all library errors."""


class InvalidValue(LaneBevError, ValueError):
    """A value lies outside its allowed range or is of the wrong type.  The
    message starts with `Class.field:` or, for an argument, `function.arg:`."""


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
    """A tensor file is not an .npy file of a real float dtype and rank
    1..4 (an old .bldt file, an .npz or a pickle is refused too), its
    header cannot be parsed, its payload has another size than the header
    says, or it changed size while it was read."""


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


@functools.cache  # the abstract-class checks take longer than a lookup
def _number_type(t: type, integer: bool = False) -> bool:
    """Whether `t`, a value's type or a dtype's, is real (integral when `integer`), not bool or a time."""
    return issubclass(t, numbers.Integral if integer else numbers.Real) and not issubclass(t, (bool, np.timedelta64))


def _numbers(owner: str, value) -> np.ndarray:
    """`value`, an ndarray of integers or floats (not copied) or a number or nest of lists and tuples
    of them, as an array, integers beyond 64 bits as floats; else InvalidValue naming `owner`."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf":  # _number_type(value.dtype.type), faster
            return np.asarray(value)
        raise InvalidValue(f"{owner}: must be an array of numbers, got {value.dtype} values")
    try:
        arr = np.asarray(value)
        leaves = [value]
        for _ in range(arr.ndim):  # one C-level pass over the nest, arr.ndim deep
            leaves = chain.from_iterable(leaves)
        bad = [t for t in set(map(type, leaves)) if not _number_type(t)]
        if not bad and arr.dtype.kind == "O":  # integers beyond 64 bits
            arr = arr.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:  # a ragged nest, an integer beyond the float range
        raise InvalidValue(f"{owner}: must be an array of numbers: {exc}") from exc
    if bad:
        raise InvalidValue(f"{owner}: must hold only numbers, got {', '.join(sorted(t.__name__ for t in bad))}")
    return arr


def _array_field(owner: str, value, shape: tuple[int | None, ...], *, finite: bool = True, dtype=float) -> np.ndarray:
    """`value` as an array of `dtype` (None keeps its own), without a copy
    when it already is one, checked for one array field named `owner`.

    Raises InvalidValue unless it is numbers (see _numbers), ShapeMismatch
    unless its shape is `shape`, where None matches any length, and, when
    `finite`, NonFiniteInput on NaN or infinity; each message starts with
    `owner`, such as `Lane3D.points`.
    """
    arr = _numbers(owner, value)
    arr = arr if dtype is None else arr.astype(dtype, copy=False)
    if arr.ndim != len(shape) or any(n is not None and n != got for got, n in zip(arr.shape, shape)):
        raise ShapeMismatch(f"{owner}: shape {arr.shape} differs from {str(shape).replace('None', '*')}")
    if finite and not np.isfinite(arr).all():
        raise NonFiniteInput(f"{owner}: holds NaN or infinite values")
    return arr


@functools.cache
def _interval(rule: str) -> tuple[float, float, bool, bool]:
    """(low, high, low included, high included) of a `_scalar_field` rule."""
    if "at least " in rule:
        rule = f"in [{rule.split('at least ')[1]}, inf)"
    rule = {"finite": "in (-inf, inf)", "positive": "in (0, inf)", "non-negative": "in [0, inf)"}.get(rule, rule)
    low, high = rule[4:-1].split(", ")
    return float(low), float(high), rule[3] == "[", rule[-1] == "]"


def _scalar_field(owner: str, value, rule: str = "finite", *, integer: bool = False) -> int | float:
    """`value`, one number named `owner`, as an int when `integer`, else a float.

    Raises InvalidValue unless it is a number by the rule of _number_type,
    an integer when `integer` (numpy scalars taken), NonFiniteInput on NaN or
    infinity, and InvalidValue unless it lies in `rule`: "finite",
    "positive", "non-negative", a text ending "at least 2", or an interval
    such as "in (0, 1]".
    """
    kind = type(value)
    if not (kind is int or kind is float and not integer or _number_type(kind, integer)):
        raise InvalidValue(f"{owner}: must be {'an integer' if integer else 'a real number'}, got {value!r}")
    try:
        number = int(value) if integer else float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not (integer or math.isfinite(number)):
        raise NonFiniteInput(f"{owner}: holds NaN or infinite values")
    low, high, low_in, high_in = _interval(rule)
    if not ((low <= number if low_in else low < number) and (number <= high if high_in else number < high)):
        raise InvalidValue(f"{owner}: must be {rule}, got {value!r}")
    return number


def _ints_field(owner: str, value, length: int | None = None, rule: str = "positive") -> tuple[int, ...]:
    """`value`, a non-empty tuple or list of integers in `rule` (see
    _scalar_field; `length` of them when given), as a tuple of ints; else
    InvalidValue naming `owner`."""
    if not (isinstance(value, (tuple, list)) and value and len(value) == (length or len(value))):
        raise InvalidValue(f"{owner}: must be {length or 'one or more'} {rule} integers, got {value!r}")
    return tuple(_scalar_field(owner, v, rule, integer=True) for v in value)


def _object_field(owner: str, value, kind: type) -> None:
    """InvalidValue naming `owner` unless `value` is an instance of `kind`,
    so a wrong object never reaches attribute access."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InvalidValue(f"{owner}: must be {article} {kind.__name__}, got {type(value).__name__}")


def _object_list(owner: str, value, kind: type) -> None:
    """InvalidValue naming `owner` unless `value` is a list or tuple, or
    naming `owner[i]` unless its entry i is an instance of `kind`."""
    if not isinstance(value, (list, tuple)):
        raise InvalidValue(f"{owner}: must be a list or tuple, got {type(value).__name__}")
    for i, entry in enumerate(value):
        if not isinstance(entry, kind):
            _object_field(f"{owner}[{i}]", entry, kind)


# --- field declarations ---

@dataclasses.dataclass(frozen=True)
class _Rule:
    """The rule of one dataclass field, declared in its metadata["rule"] by
    _scalar, _ints, _array, _tuple, _instance or _instances: `kind` is
    "scalar" (a number in `bounds`, an integer when `integer`), "ints"
    (`shape[0]` integers in `bounds`, any number for None), "array" (of
    `shape`, `dtype` and, when `finite`, finite values; a first dim naming
    an earlier field stands for its shape), "tuple" (such an array of
    floats, stored as a tuple), "object" (an instance of `cls`) or "list"
    (a list or tuple of them), each checked by its helper above.  `none`
    lets the field be None; `items` names a short list's entries for --schema."""

    kind: str
    bounds: str = "finite"
    integer: bool = False
    shape: tuple = ()
    finite: bool = True
    dtype: type | None = float
    cls: type | None = None
    none: bool = False
    items: str | None = None

    def check(self, owner: str, value, obj):
        """`value`, the field `owner` of `obj`, as the field stores it, or the rule's error."""
        kind = self.kind
        if value is None and self.none:
            return value
        if kind == "array" or kind == "tuple":
            shape = getattr(obj, self.shape[0]).shape + self.shape[1:] if type(self.shape[0]) is str else self.shape
            arr = _array_field(owner, value, shape, finite=self.finite, dtype=self.dtype)
            return arr if kind == "array" else tuple(arr.tolist())
        if kind == "scalar":
            _scalar_field(owner, value, self.bounds, integer=self.integer)
        elif kind == "object":
            _object_field(owner, value, self.cls)
        elif kind == "list":
            _object_list(owner, value, self.cls)
        else:
            return _ints_field(owner, value, self.shape[0], self.bounds)
        return value


def _declare(default=MISSING, bounds: str = "finite", *, factory=MISSING, **rule) -> dataclasses.Field:
    """A dataclass field of `default` (or `factory`) whose _Rule is declared in its metadata."""
    return dataclasses.field(default=default, default_factory=factory, metadata={"rule": _Rule(bounds=bounds, **rule)})


_scalar = functools.partial(_declare, kind="scalar")
_ints = functools.partial(_declare, kind="ints", bounds="positive", shape=(None,))
_array = functools.partial(_declare, kind="array")
_tuple = functools.partial(_declare, kind="tuple", shape=(None,))
_instance = functools.partial(_declare, kind="object")
_instances = functools.partial(_declare, kind="list", factory=list)


@functools.cache
def _declarations(cls: type) -> tuple[tuple[str, str, _Rule], ...]:
    """(name, `Class.name`, rule) of each field of the dataclass `cls`, in order."""
    return tuple((f.name, f"{cls.__name__}.{f.name}", f.metadata["rule"]) for f in dataclasses.fields(cls))


class _Declared:
    """Base of the public dataclasses: __post_init__ applies the declared
    rule of each field but `skip` in field order, storing the value each
    gives.  A class with rules across fields calls it, then checks those."""

    def __post_init__(self, skip: str | None = None):
        for name, owner, rule in _declarations(type(self)):
            value = getattr(self, name)
            if name != skip and (checked := rule.check(owner, value, self)) is not value:
                object.__setattr__(self, name, checked)
