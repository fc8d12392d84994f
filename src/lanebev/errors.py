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
every object, or list of them, by `_object_field`, so a value of the wrong
type is InvalidValue, never a bare Python error.  The rule (`_Rule`) of each
public dataclass field, which the file readers and --schema read, and of
each function argument is derived from its annotation by `_rule_of`;
`_field` or `_checked` adds only the bound and an array's shape.

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
import sys
import types
import typing
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
    """`value`, one number named `owner`, a numpy scalar as an int when `integer`, else a float.

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
    return value if kind is int or kind is float else number


def _object_field(owner: str, value, kind: type) -> None:
    """InvalidValue naming `owner` unless `value` is an instance of `kind` (a
    class or a union), so a wrong object never reaches attribute access."""
    if not isinstance(value, kind):
        name = " or ".join(t.__name__ for t in typing.get_args(kind)) or kind.__name__
        article = "an" if name[0] in "AEIOU" else "a"
        raise InvalidValue(f"{owner}: must be {article} {name}, got {type(value).__name__}")


# --- field and argument rules ---

@dataclasses.dataclass(frozen=True)
class _Rule:
    """The rule of one field or argument (see _rule_of): `kind` is "scalar"
    (a number in `bounds`, an integer when `integer`), "ints" (`shape[0]`
    integers in `bounds`, any number for None), "array" (of `shape`,
    `dtype` and, when `finite`, finite values; a first dim naming an
    earlier field stands for its shape), "tuple" (such an array of floats,
    stored as a tuple), "numbers" (an array), "object" (an instance of
    `cls`), "list" (a list or tuple of them), "fixed" or "dict" (a tuple or
    dict whose entries `entries` checks, as a list's when given), each by
    its helper above.  `none` lets the value be None; `items` names a short
    list's entries for --schema."""

    kind: str
    bounds: str = "finite"
    integer: bool = False
    shape: tuple = ()
    finite: bool = True
    dtype: type | None = float
    cls: type | None = None
    none: bool = False
    items: str | None = None
    entries: tuple = ()

    def check(self, owner: str, value, obj=None):
        """`value`, the field or argument `owner` (of `obj`), as it is stored or
        passed on (a number as a Python int or float), or the rule's error."""
        kind = self.kind
        if value is None and self.none or kind == "object" and isinstance(value, self.cls):
            return value
        if kind == "array" or kind == "tuple":
            shape = getattr(obj, self.shape[0]).shape + self.shape[1:] if type(self.shape[0]) is str else self.shape
            arr = _array_field(owner, value, shape, finite=self.finite, dtype=self.dtype)
            return arr if kind == "array" else tuple(arr.tolist())
        if kind == "scalar":
            return _scalar_field(owner, value, self.bounds, integer=self.integer)
        if kind == "numbers":
            return _numbers(owner, value)
        if kind == "ints":  # a non-empty tuple or list, of shape[0] entries when given
            if not (isinstance(value, (tuple, list)) and value and len(value) == (self.shape[0] or len(value))):
                raise InvalidValue(f"{owner}: must be {self.shape[0] or 'one or more'} {self.bounds} integers, got {value!r}")
            return tuple(_scalar_field(owner, v, self.bounds, integer=True) for v in value)
        if kind == "list":
            _object_field(owner, value, list | tuple)
            for i, entry in enumerate(value):
                if not isinstance(entry, self.cls):
                    _object_field(f"{owner}[{i}]", entry, self.cls)
        else:  # "object", "fixed" or "dict"
            _object_field(owner, value, self.cls)
        if kind == "fixed" and len(value) != len(self.entries):
            raise InvalidValue(f"{owner}: must hold {len(self.entries)} entries, got {len(value)}")
        for key, entry in value.items() if kind == "dict" else enumerate(value) if self.entries else ():
            self.entries[key if kind == "fixed" else 0].check(f"{owner}[{key!r}]", entry)
        return value


def _rule_of(annotation, bounds: str | None = None, **extra) -> _Rule | None:
    """The rule of a field or argument annotated `annotation`, in `bounds`
    (else its own) and with `extra`: float or int a "scalar"; np.ndarray an
    "array" when `extra` gives its shape, else "numbers"; `tuple[int, ...]`
    or `tuple[int, int]` positive "ints", of floats a "tuple", any other
    tuple "fixed"; `list[X]` a "list"; `dict[K, X]` a "dict"; str, bytes,
    bytearray, a lanebev or numpy.random class, or a union of them, an
    "object"; `X | None` X's rule with `none`; else None, the body's to check."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is types.UnionType and args[1:] == (type(None),):
        return _rule_of(args[0], bounds, **extra, none=True)
    if origin is types.UnionType:  # of classes; the body checks any other union
        objects = all(getattr(_rule_of(arg), "kind", None) == "object" for arg in args)
        return _Rule("object", cls=annotation) if objects else None
    if annotation is float or annotation is int:
        rule = _Rule("scalar", integer=annotation is int)
    elif annotation is np.ndarray:
        rule = _Rule("array" if "shape" in extra else "numbers")
    elif origin is tuple and args[0] in (int, float) and set(args[1:]) <= {args[0], ...}:
        shape = (None,) if args[-1] is ... else (len(args),)
        rule = _Rule("ints", bounds="positive", shape=shape) if args[0] is int else _Rule("tuple", shape=shape)
    elif origin is tuple:
        rule = _Rule("fixed", cls=tuple, entries=tuple(map(_rule_of, args)))
    elif origin is list:
        entry = _rule_of(args[0])
        rule = _Rule("list", cls=entry.cls, entries=() if entry.kind == "object" else (entry,))
    elif origin is dict:
        rule = _Rule("dict", cls=dict, entries=(_rule_of(args[1]),))
    elif annotation in (str, bytes, bytearray) or getattr(annotation, "__module__", "").startswith(("lanebev.", "numpy.random")):
        rule = _Rule("object", cls=annotation)  # not np.random, which imports numpy.random
    else:
        return None
    return dataclasses.replace(rule, bounds=bounds or rule.bounds, **extra)


def _field(default=MISSING, bounds: str | None = None, *, factory=MISSING, **extra) -> dataclasses.Field:
    """A dataclass field of `default` (or `factory`) whose rule is its annotation's
    in `bounds`, with `extra`: an array's `shape`, `finite` and `dtype`, and `items`."""
    return dataclasses.field(default=default, default_factory=factory, metadata={"bounds": bounds, **extra})


@functools.cache
def _declarations(cls: type) -> tuple[tuple[str, str, _Rule], ...]:
    """(name, `Class.name`, rule) of each field of the dataclass `cls` made by _field, in order."""
    namespace = vars(sys.modules[cls.__module__])
    return tuple(
        (f.name, f"{cls.__name__}.{f.name}", _rule_of(eval(f.type, namespace), **f.metadata))
        for f in dataclasses.fields(cls)
        if f.metadata
    )


class _Declared:
    """Base of the public dataclasses: __post_init__ applies the rule of
    each field made by _field in field order, storing the value each gives;
    a class then checks its rules across fields and its other fields."""

    def __post_init__(self):
        for name, owner, rule in _declarations(type(self)):
            value = getattr(self, name)
            if (checked := rule.check(owner, value, self)) is not value:
                object.__setattr__(self, name, checked)


def _checked(fn=None, /, **bounds):
    """Decorator: each argument of `fn` whose annotation declares a rule is
    checked by it, named `function.arg` or `Class.method.arg`, unless left
    to its default, and `fn` gets the value the check returns.  A keyword
    gives another bound (`@_checked(scale="positive")`); a caller passing on
    arguments it checked calls `fn.__wrapped__`.  The annotations are
    resolved on the first call or `_checks()` read, not at import, where
    np.random.Generator would import numpy.random."""
    if fn is None:
        return functools.partial(_checked, **bounds)

    @functools.cache
    def checks() -> list[tuple[int, str, str, _Rule]]:  # (position, name, owner, rule); *args would shift positions
        rules = {name: r for name, text in fn.__annotations__.items() if name != "return" and (r := _rule_of(eval(text, fn.__globals__)))}
        for name, bound in bounds.items():  # a KeyError names a bound for no checked argument
            rules[name] = dataclasses.replace(rules[name], bounds=bound)
        return [(fn.__code__.co_varnames.index(name), name, f"{fn.__qualname__}.{name}", rule) for name, rule in rules.items()]

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        args = list(args)
        for i, name, owner, rule in checks():
            if i < len(args):
                args[i] = rule.check(owner, args[i])
            elif name in kwargs:
                kwargs[name] = rule.check(owner, kwargs[name])
        return fn(*args, **kwargs)

    checked._checks = checks
    return checked
