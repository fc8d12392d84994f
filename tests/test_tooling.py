"""The test configuration itself: a failing test is reported, not lost; the
package writes files through one writer only, reads none through numpy's
loaders or pickle, writes JSON text through one encoder call, raises and
never warns, refuses a value with its own error classes, each message
naming the field, and neither converts nor checks an argument of a function
by hand; every field of every public dataclass and every argument whose
annotation declares a rule goes through that rule, which the tables below
read, and no module but errors restates a rule; every field refuses a
value of the wrong type, an array field a wrong shape, NaN, a bool or a
numeric string, and so does every declared
argument and every entry of a declared list or dict; every public function
keeps its name and signature; and no CLI flag re-spells a config file's
field."""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lanebev
from lanebev import data_io
from lanebev.camera_geometry import CameraRig, Extrinsics, Homography, Intrinsics, bilinear_operator, project_ground_points
from lanebev.cli import _COMMANDS
from lanebev.errors import InvalidValue, LaneBevError, NonFiniteInput, ShapeMismatch, _declarations, _interval
from lanebev.lane_grid import GridSpec, GridTensors, Lane3D, simplex_vertices
from lanebev.losses import (
    FrontViewPrediction,
    FrontViewTruth,
    PredictionBatch,
    binary_cross_entropy,
    finite_difference_gradient,
    run_gradient_suite,
    sigmoid,
)
from lanebev.metrics import EvalConfig, EvalResult
from lanebev.postproc import DecodeParams, FittedLane, LaneInstance
from lanebev.synth import SceneParams, SceneRecord, canonical_rig, checkerboard, jittered_rig
from lanebev.view_transform import FeatureTensor, PyramidSpec, ViewRelationMap

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
# Every module of the package, and every class they define
MODULES = [importlib.import_module(f"lanebev.{path.stem}") for path in sorted((ROOT / "src" / "lanebev").glob("[!_]*.py"))]
LANEBEV_CLASSES = {
    name for module in MODULES for name, obj in vars(module).items() if inspect.isclass(obj) and obj.__module__ == module.__name__
}


def test_falsified_property_is_reported_and_the_session_goes_on(tmp_path):
    # Under the project's warning filters, hypothesis's report of a falsified
    # property must not end the session: the plain test after it still runs.
    (tmp_path / "test_probe.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @settings(database=None, derandomize=True)
            @given(st.integers())
            def test_falsified(n):
                assert n < 10

            def test_plain():
                pass
            """
        )
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example" in done.stdout


def in_functions(source: str):
    """Each node of `source` and the innermost function definition that
    holds it (None at module level); a definition holds itself."""

    def visit(node, fn):
        fn = node if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
        yield node, fn
        for child in ast.iter_child_nodes(node):
            yield from visit(child, fn)

    return visit(ast.parse(source), None)


def file_writes(source: str) -> list[str]:
    """Each call in `source` that writes a file outside data_io._write_file.

    That is a write_text or write_bytes call, numpy's save, savez,
    savez_compressed or tofile, and an open call whose mode is not a
    literal without w, a, x or +; os.open, whose flags are not a mode
    string, counts too.
    """
    found = []
    for node, fn in in_functions(source):
        if getattr(fn, "name", None) != "_write_file" and isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_text", "write_bytes", "save", "savez", "savez_compressed", "tofile"):
                found.append(f"line {node.lineno}: {name}")
            elif name == "open":
                # builtin open(file, mode), Path.open(mode), os.open(path, flags)
                path_given = isinstance(func, ast.Name) or (isinstance(func.value, ast.Name) and func.value.id in ("io", "os"))
                args = node.args[1:] if path_given else node.args
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), args[0] if args else None)
                os_open = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os"
                readonly = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set("wax+") & set(mode.value)
                if os_open or not (mode is None or readonly):
                    found.append(f"line {node.lineno}: open")
    return found


def test_the_write_scan_finds_each_kind_of_write():
    source = textwrap.dedent(
        """
        def save(path, text, mode):
            Path(path).write_text(text)
            path.write_bytes(b"")
            open(path, "wb")
            open(path, mode="a")
            io.open(path, "x")
            path.open("r+")
            open(path, mode)
            os.open(path, os.O_WRONLY | os.O_TRUNC)
            np.save(path, arr)
            numpy.savez(path, a=arr)
            np.savez_compressed(path, a=arr)
            arr.tofile(path)

        def load(path):
            open(path)
            open(path, "rb")
            path.open()
            path.open(encoding="utf-8")

        def _write_file(path):
            os.open(path, os.O_WRONLY | os.O_CREAT)
        """
    )
    numpy_writes = [(11, "save"), (12, "savez"), (13, "savez_compressed"), (14, "tofile")]
    expected = [(3, "write_text"), (4, "write_bytes")] + [(n, "open") for n in range(5, 11)] + numpy_writes
    assert file_writes(source) == [f"line {n}: {kind}" for n, kind in expected]


def module_uses(source: str, module: str | None, picks, allowed: tuple[str, ...] = ()) -> list[str]:
    """Each import of `module` in `source`, and each call for which
    picks(owner, name) holds outside the functions named in `allowed`,
    owner being the name before the dot (None for a bare name), by line."""
    found = []
    for node, fn in in_functions(source):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {module}") for a in node.names if a.name.split(".")[0] == module]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module:
            found.append((node.lineno, f"from {module}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)) and getattr(fn, "name", None) not in allowed:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else func.id
            owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
            if picks(owner, name):
                found.append((node.lineno, f"{owner}.{name}" if owner else name))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def unsafe_reads(source: str) -> list[str]:
    """Each call in `source` of numpy's load (np.load, numpy.load) or of a
    read_array, and each import or call of the pickle module: readers that
    may unpickle a file or allocate what its header claims before reading."""
    return module_uses(
        source, "pickle", lambda owner, name: name == "read_array" or (name == "load" and owner in ("np", "numpy")) or owner == "pickle"
    )


def test_the_reader_scan_finds_each_unsafe_read():
    source = textwrap.dedent(
        """
        import pickle
        import os, pickle as p
        from pickle import loads

        def load(path, fh, blob):
            np.load(path)
            numpy.load(path, allow_pickle=False)
            npy.read_array(fh)
            read_array(fh)
            pickle.loads(blob)
            json.load(fh)
            data_io.load_lanes(path)
            npy.read_array_header_1_0(fh)
            npy.read_magic(fh)
        """
    )
    assert unsafe_reads(source) == [
        "line 2: import pickle",
        "line 3: import pickle",
        "line 4: from pickle",
        "line 7: np.load",
        "line 8: numpy.load",
        "line 9: npy.read_array",
        "line 10: read_array",
        "line 11: pickle.loads",
    ]


def json_dumps_calls(source: str, allowed: tuple[str, ...] = ()) -> list[str]:
    """Each json.dumps or json.dump call in `source` (also when imported by
    name) outside the functions named in `allowed`."""
    return module_uses(source, None, lambda owner, name: name in ("dumps", "dump"), allowed)


def test_the_json_scan_finds_each_encoder_call():
    source = textwrap.dedent(
        """
        def emit(payload, fh):
            text = json.dumps(payload, indent=2) + "\\n"
            sys.stderr.write(json.dumps({"error": "x"}))
            json.dump(payload, fh)
            dumps(payload)
            json.loads(text)
            data_io._json_text(payload)

        def _json_text(obj):
            return json.dumps(obj) + "\\n"
        """
    )
    assert json_dumps_calls(source, ("_json_text",)) == ["line 3: json.dumps", "line 4: json.dumps", "line 5: json.dump", "line 6: dumps"]
    assert json_dumps_calls(source)[-1] == "line 11: json.dumps"


def warning_uses(source: str) -> list[str]:
    """Each import of the warnings module in `source`, and each call of a
    function named warn or warn_explicit (also when imported by name)."""
    return module_uses(source, "warnings", lambda owner, name: name in ("warn", "warn_explicit"))


def test_the_warning_scan_finds_each_warning():
    source = textwrap.dedent(
        """
        import warnings
        import os, warnings as w
        from warnings import warn

        def check(value):
            warnings.warn("value may be wrong", stacklevel=2)
            w.warn_explicit("late", UserWarning, "f.py", 1)
            warn("plain")
            logger.warning("not a warning call")
            with np.errstate(over="ignore"):
                pass
        """
    )
    assert warning_uses(source) == [
        "line 2: import warnings",
        "line 3: import warnings",
        "line 4: from warnings",
        "line 7: warnings.warn",
        "line 8: w.warn_explicit",
        "line 9: warn",
    ]


def argument_conversions(source: str) -> list[str]:
    """Each call in `source` of numpy's asarray, array or asanyarray on a
    parameter of the public function (name without a leading _) holding it."""
    found = []
    for node, fn in in_functions(source):
        func = node.func if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name) else None
        if fn and not fn.name.startswith("_") and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("np", "numpy"):
            params = {arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}
            if func.attr in ("asarray", "array", "asanyarray") and node.args[0].id in params:
                found.append(f"line {node.lineno}: {fn.name}")
    return found


def test_the_conversion_scan_finds_each_converted_argument():
    source = textwrap.dedent(
        """
        def sigmoid(x: np.ndarray) -> np.ndarray:
            \"\"\"Logistic function as float64, computed in x's dtype from exp(-|x|),
            which never overflows: 1 / (1 + e) where x >= 0, else e / (1 + e).\"\"\"
            x = np.asarray(x)

        def apply(self, points, *, scale=1.0):
            np.array(points, dtype=float), numpy.asanyarray(scale), np.asarray(self.matrix), np.stack(points)

        def _sample(img):
            np.asarray(img)
        """
    )
    assert argument_conversions(source) == ["line 5: sigmoid", "line 8: apply", "line 8: apply"]


ARGUMENT_CHECKERS = ("_object_field", "_scalar_field", "_numbers")


def argument_checks(source: str) -> list[str]:
    """Each call in `source` of an argument checker (ARGUMENT_CHECKERS) whose
    value, its second argument, is a parameter of the function holding the
    call, or an entry of one (`maps[scale]`)."""
    found = []
    for node, fn in in_functions(source):
        func = node.func if fn and isinstance(node, ast.Call) and len(node.args) > 1 else None
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ARGUMENT_CHECKERS:
            value = node.args[1]
            while isinstance(value, ast.Subscript):
                value = value.value
            params = {arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}
            if isinstance(value, ast.Name) and value.id in params:
                found.append(f"line {node.lineno}: {name} in {fn.name}")
    return found


def test_the_argument_check_scan_finds_each_hand_written_check():
    # the head of decode_grid before its arguments were declared, and calls
    # on an entry of an argument, on a local and on an attribute
    source = textwrap.dedent(
        """
        def decode_grid(
            pred: GridTensors,
            spec: GridSpec = GridSpec(),
            params: DecodeParams = DecodeParams(),
        ) -> list[LaneInstance]:
            \"\"\"Turn prediction-side grid tensors into instance-level 3D lanes.\"\"\"
            _object_field("decode_grid.pred", pred, GridTensors)
            _object_field("decode_grid.spec", spec, GridSpec)
            _object_field("decode_grid.params", params, DecodeParams)
            if pred.embedding is None:
                raise ShapeMismatch("decode_grid.pred: needs an embedding")

        def apply_pyramid(maps, features, spec):
            for scale in spec.scales:
                errors._object_field(f"apply_pyramid.maps[{scale}]", maps[scale], ViewRelationMap)
                frame = features[scale]
                _object_field("apply_pyramid.features", frame, FeatureTensor)
                _numbers("apply_pyramid.spec", spec.scales)
                _array_field("apply_pyramid.features", features, (None,))
        """
    )
    assert argument_checks(source) == [
        "line 8: _object_field in decode_grid",
        "line 9: _object_field in decode_grid",
        "line 10: _object_field in decode_grid",
        "line 16: _object_field in apply_pyramid",
    ]


# The _Rule fields that an annotation gives, and _field takes no keyword for
ANNOTATED = ("kind", "cls", "integer", "none")


def restated_rules(source: str) -> list[str]:
    """Each call in `source` that constructs an errors._Rule, and each
    errors._field call given a rule field its annotation gives (ANNOTATED)."""
    found = []
    for node, _ in in_functions(source):
        func = node.func if isinstance(node, ast.Call) else None
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "_Rule":
            found.append(f"line {node.lineno}: _Rule")
        elif name == "_field":
            found.extend(f"line {node.lineno}: _field {kw.arg}" for kw in node.keywords if kw.arg in ANNOTATED)
    return found


def test_the_rule_scan_finds_each_restated_rule():
    source = textwrap.dedent(
        """
        @dataclass
        class Lane(_Declared):
            points: np.ndarray = _field(shape=(None, 3), finite=False)
            id: int = _field(0, "positive", integer=True)
            tag: str | None = errors._field(None, cls=str, none=True)
            rig: CameraRig = dataclasses.field(metadata={"rule": errors._Rule("object", cls=CameraRig)})

        def rule():
            return _Rule(kind="scalar")
        """
    )
    assert restated_rules(source) == [
        "line 5: _field integer",
        "line 6: _field cls",
        "line 6: _field none",
        "line 7: _Rule",
        "line 10: _Rule",
    ]


GENERIC_ERRORS = ("ValueError", "TypeError", "RuntimeError")


def generic_raises(source: str, allowed: tuple[str, ...] = ()) -> list[str]:
    """Each raise in `source` of a builtin ValueError, TypeError or
    RuntimeError, outside the functions named in `allowed`."""
    found = []
    for node, fn in in_functions(source):
        where = fn.name if fn else "<module>"
        if isinstance(node, ast.Raise) and where not in allowed:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in GENERIC_ERRORS:
                found.append(f"line {node.lineno}: {exc.id} in {where}")
    return found


def test_the_raise_scan_finds_each_generic_error():
    source = textwrap.dedent(
        """
        if sys.version_info < (3, 10):
            raise RuntimeError("too old")

        def check(value):
            if value < 0:
                raise ValueError(f"negative: {value}")
            if value is None:
                raise TypeError
            try:
                value.run()
            except OSError as exc:
                raise RuntimeError("failed") from exc

            def inner():
                raise ValueError()

            raise InvalidValue("check.value: out of range")

        def _assign(cost):
            raise ValueError("cost matrix is infeasible")

        def reraise():
            try:
                pass
            except ValueError:
                raise
        """
    )
    assert generic_raises(source, ("_assign",)) == [
        "line 3: RuntimeError in <module>",
        "line 7: ValueError in check",
        "line 9: TypeError in check",
        "line 13: RuntimeError in check",
        "line 16: ValueError in inner",
    ]
    assert generic_raises(source)[-1] == "line 21: ValueError in _assign"


# A file's layout refusals name a key path, whose first key may stand alone
# (`lanes: `, `intrinsic: `); the others name `Class.field` or `function.arg`
KEY_PATH_ERRORS = ("MissingField",)
PREFIXED_ERRORS = ("ShapeMismatch", "NonFiniteInput", "InvalidValue", "SingularHomography", *KEY_PATH_ERRORS)
# `Class.field: ` or `function.arg: `, perhaps indexed or nested, or a
# prefix held in a variable (a file path, a field's owner); {} stands for
# each replacement field of an f-string
_SEGMENT = r"(\.(\w|\{\})+|\[[^\]]*\])"
MESSAGE_PREFIX = re.compile(rf"^(\{{\}}{_SEGMENT}*|[A-Za-z_]\w*{_SEGMENT}+): ")
KEY_PATH_PREFIX = re.compile(rf"^(\{{\}}|[A-Za-z_]\w*){_SEGMENT}*: ")


def unprefixed_messages(source: str) -> list[str]:
    """Each raise in `source` of a class in PREFIXED_ERRORS whose literal
    message does not start with a field prefix, or a key path for the
    classes in KEY_PATH_ERRORS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        call = node.exc if isinstance(node, ast.Raise) else None
        name = getattr(call.func, "id", None) if isinstance(call, ast.Call) else None
        if name not in PREFIXED_ERRORS or not call.args:
            continue
        message = call.args[0]
        if isinstance(message, ast.JoinedStr):
            text = "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in message.values)
        elif isinstance(message, ast.Constant) and isinstance(message.value, str):
            text = message.value
        else:
            continue
        if not (KEY_PATH_PREFIX if name in KEY_PATH_ERRORS else MESSAGE_PREFIX).match(text):
            found.append(f"line {node.lineno}: {text}")
    return found


def test_the_message_scan_finds_each_bare_message():
    source = textwrap.dedent(
        """
        def check(value, name, path, owner, i, message):
            raise ShapeMismatch("raw_confidence must be 2-D")
            raise NonFiniteInput(f"{name} holds NaN or infinite values")
            raise InvalidValue(f"must be positive, got {value}")
            raise InvalidValue("mask: must be 2-D")
            raise ShapeMismatch(f"lanes[{i}].points must be (N, 3)")
            raise InvalidValue("Lane3D.points: needs 2 points")
            raise ShapeMismatch(f"{path}: rank must be 1..4")
            raise NonFiniteInput(f"fit_vrm_least_squares.samples[{i}]: holds NaN")
            raise InvalidValue(f"GridSpec.{name}_max: must exceed {name}_min")
            raise ShapeMismatch(f"{owner}.image: must be 2-D or 3-D")
            raise ShapeMismatch(f"save_lanes.lanes[{i}].points: shape differs")
            raise NonFiniteInput(message)
            raise DegenerateDepth("depth problems are not scanned")
            raise MissingField(f"lanes must be a list, got {value}")
            raise InvalidValue("extrinsic: rotation fails orthonormality")
            raise SingularHomography("homography matrix is singular")
            raise SingularHomography("matrix: singular")
            raise MissingField(f"lanes: must be a list, got {value}")
            raise MissingField(f"lanes[{i}].id: must be a 64-bit integer")
            raise InvalidValue("frame.extrinsic: rotation fails orthonormality")
            raise MissingField(f"{name}: missing or null")
            raise SingularHomography("Homography.matrix: singular")
        """
    )
    assert unprefixed_messages(source) == [
        "line 3: raw_confidence must be 2-D",
        "line 4: {} holds NaN or infinite values",
        "line 5: must be positive, got {}",
        "line 6: mask: must be 2-D",
        "line 7: lanes[{}].points must be (N, 3)",
        "line 16: lanes must be a list, got {}",
        "line 17: extrinsic: rotation fails orthonormality",
        "line 18: homography matrix is singular",
        "line 19: matrix: singular",
    ]


# What every module of the package is scanned for, each scan given a
# module's source and file name
MODULE_SCANS = {
    # data_io._write_file is the one writer of every file
    "file write": lambda source, name: file_writes(source),
    # read_tensor parses the .npy header itself with numpy's header readers,
    # and checks the payload size against the file before allocating
    "unsafe read": lambda source, name: unsafe_reads(source),
    # data_io._json_text is the layout of every JSON file and stream the package writes
    "JSON encoder call": lambda source, name: json_dumps_calls(source, ("_json_text",) if name == "data_io.py" else ()),
    # A problem raises a LaneBevError or is not reported: a warning reaches
    # stderr on a run that succeeds, and under -W error it ends the run
    "warning": lambda source, name: warning_uses(source),
    # np.asarray reads a bool as 1, a numeric string as a number and a word
    # as a string; errors._numbers refuses each, naming `function.arg`
    "argument conversion": lambda source, name: [] if name == "errors.py" else argument_conversions(source),
    # An argument's rule is its annotation and errors._checked's bound, applied
    # by the decorator; a body checks only the rules across arguments
    "argument check": lambda source, name: [] if name == "errors.py" else argument_checks(source),
    # A field's rule is its annotation and _field's bound and shape: errors
    # derives every rule, so no other module builds one or restates a type
    "restated rule": lambda source, name: [] if name == "errors.py" else restated_rules(source),
    # A refusal is a LaneBevError, which callers tell from a bug; metrics._assign
    # raises ValueError on no finite assignment, as scipy's linear_sum_assignment
    "generic raise": lambda source, name: generic_raises(source, ("_assign",) if name == "metrics.py" else ()),
    "unprefixed message": lambda source, name: unprefixed_messages(source),
}


@pytest.mark.parametrize("scan", MODULE_SCANS)
@pytest.mark.parametrize("module", sorted((ROOT / "src" / "lanebev").glob("*.py")), ids=lambda p: p.name)
def test_no_module_holds_what_a_scan_finds(module, scan):
    assert MODULE_SCANS[scan](module.read_text(), module.name) == []


ERRORS_MODULE = ROOT / "src" / "lanebev" / "errors.py"


def unraised_error_classes(errors_source: str, sources: list[str]) -> list[str]:
    """Each class with a base (an exception) defined in `errors_source`, but
    LaneBevError, that no raise in `sources` names (as `Name` or `module.Name`)."""
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "attr", getattr(exc, "id", None)))
    defined = [node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef) and node.bases]
    return [name for name in defined if name != "LaneBevError" and name not in raised]


def test_every_error_class_is_raised():
    # A class that nothing raises is a fault kind no caller can meet: each
    # kind of fault has one class, and the package raises it by name
    sources = [module.read_text() for module in sorted((ROOT / "src" / "lanebev").glob("*.py"))]
    assert unraised_error_classes(ERRORS_MODULE.read_text(), sources) == []


def test_the_class_scan_finds_each_class_nothing_raises():
    errors = textwrap.dedent(
        """
        class LaneBevError(Exception):
            pass

        class ParseFault(LaneBevError):
            pass

        class MalformedJson(ParseFault):
            pass

        class TensorFormatError(LaneBevError):
            pass

        class BadHeader(TensorFormatError):
            pass

        class InvalidValue(LaneBevError, ValueError):
            pass

        class _Rule:
            def check(owner, value):
                raise TensorFormatError(owner)
        """
    )
    user = textwrap.dedent(
        """
        def read(path):
            if not path:
                raise errors.BadHeader(f"{path}: magic")
            raise MalformedJson

        def check(value):
            try:
                value.run()
            except TensorFormatError:
                raise
            except ParseFault as exc:
                raise InvalidValue("check.value: out of range") from exc
        """
    )
    assert unraised_error_classes(errors, [user]) == ["ParseFault", "TensorFormatError"]
    assert unraised_error_classes(errors, [user, errors]) == ["ParseFault"]


_Z2, _Z3 = np.zeros((2, 3)), np.zeros((2, 3, 4))
_LINE = np.array([[3.0, 0.0, 0.0], [5.0, 1.0, 0.0]])
# Every public dataclass: those the package exports, and the front-view
# loss inputs that total_loss takes
PUBLIC_DATACLASSES = [
    *(getattr(lanebev, name) for name in lanebev.__all__ if dataclasses.is_dataclass(getattr(lanebev, name))),
    FrontViewPrediction,
    FrontViewTruth,
]
# A valid construction of every public dataclass; a field left out takes its
# default, and a class whose every field has one needs no entry
VALID_ARGS = {
    CameraRig: {
        "intrinsics": Intrinsics(1000.0, 1000.0, 512.0, 288.0),
        "extrinsics": Extrinsics(np.eye(3), np.ones(3)),
        "image_size": (1024, 576),
    },
    EvalConfig: {"sample_xs": np.array([3.0, 8.0])},
    EvalResult: {
        "f_score": 1.0, "precision": 1.0, "recall": 1.0, "x_err_near": 0.0, "x_err_far": None, "z_err_near": 0.0, "z_err_far": None
    },
    Extrinsics: {"rotation": np.eye(3), "translation": np.zeros(3)},
    FeatureTensor: {"data": _Z3},
    FittedLane: {"y_coeffs": np.zeros(4), "z_coeffs": np.zeros(4), "x_range": (3.0, 5.0)},
    GridTensors: {"confidence": _Z2, "offset": _Z2, "height": _Z2, "instance": _Z2, "embedding": _Z3},
    Homography: {"matrix": np.eye(3)},
    Intrinsics: {"fx": 1000.0, "fy": 1000.0, "cx": 512.0, "cy": 288.0},
    Lane3D: {"points": _LINE},
    LaneInstance: {"cluster_id": 0, "points": _LINE},
    PredictionBatch: {"raw_confidence": _Z2, "raw_offset": _Z2, "embedding": _Z3, "height": _Z2},
    SceneRecord: {"rig": canonical_rig(), "lanes": [Lane3D(_LINE, id=1)], "scene_tag": "flat"},
    ViewRelationMap: {"matrix": np.zeros((4, 6)), "fv_shape": (2, 3), "bev_shape": (2, 2)},
    FrontViewPrediction: {"raw_seg": _Z2, "embedding": _Z3},
    FrontViewTruth: {"mask": _Z2, "instance": _Z2},
}
# The rule of every public field (errors._Rule), as errors._declarations
# derives it from the field's annotation; None where the class checks it
RULES = {
    (cls, f.name): {name: rule for name, _, rule in _declarations(cls)}.get(f.name)
    for cls in PUBLIC_DATACLASSES
    for f in dataclasses.fields(cls)
}
# The one field without a derived rule: its annotation names scipy.sparse,
# imported only when a sparse map is built, and its class checks a dense
# matrix as an array field that takes NaN and a sparse one as numbers
SELF_CHECKED = {(ViewRelationMap, "matrix")}
# The array fields declared to take NaN, such as GridTensors.embedding
TAKES_NAN = {key for key, rule in RULES.items() if rule and rule.kind == "array" and not rule.finite} | SELF_CHECKED
ARRAY_FIELDS = [(cls, name) for cls, args in VALID_ARGS.items() for name, value in args.items() if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("cls, field", ARRAY_FIELDS, ids=[f"{cls.__name__}.{field}" for cls, field in ARRAY_FIELDS])
def test_every_array_field_refuses_a_wrong_shape_and_nan_naming_it(cls, field):
    # A wrong shape is ShapeMismatch, also a ValueError, and NaN is
    # NonFiniteInput, each naming Class.field
    args = VALID_ARGS[cls]
    cls(**args)
    named = rf"^{cls.__name__}\.{field}: "
    with pytest.raises(ShapeMismatch, match=named) as err:
        cls(**{**args, field: args[field][..., None]})
    assert isinstance(err.value, ValueError)
    nan = args[field].copy()
    nan.flat[0] = np.nan
    if (cls, field) in TAKES_NAN:
        cls(**{**args, field: nan})
        return
    with pytest.raises(NonFiniteInput, match=named):
        cls(**{**args, field: nan})


def with_first_leaf(array: np.ndarray, leaf) -> list:
    """`array` as a nested list whose first leaf is `leaf`."""
    nest = array.tolist()
    inner = nest
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = leaf
    return nest


# Values that are not numbers although numpy reads them as numbers: a bool
# array, and a nest of numbers with one leaf a bool or a numeric string
NOT_NUMBERS = {
    "bool array": lambda array: array.astype(bool),
    "bool leaf": lambda array: with_first_leaf(array, True),
    "numeric string leaf": lambda array: with_first_leaf(array, "0.5"),
}


@pytest.mark.parametrize("kind", NOT_NUMBERS)
@pytest.mark.parametrize("cls, field", ARRAY_FIELDS, ids=[f"{cls.__name__}.{field}" for cls, field in ARRAY_FIELDS])
def test_every_array_field_refuses_bools_and_numeric_strings_naming_it(cls, field, kind):
    # each was once read as 1.0 or 0.5, where a scalar field or a file refuses it
    args = VALID_ARGS[cls]
    with pytest.raises(InvalidValue, match=rf"^{cls.__name__}\.{field}: "):
        cls(**{**args, field: NOT_NUMBERS[kind](args[field])})


def test_every_public_field_declares_its_rule():
    # the one rule that the check, the file readers and --schema read; the
    # field its class checks still gets every wrong-shape, NaN and type row
    assert [f"{cls.__name__}.{name}" for (cls, name), rule in RULES.items() if rule is None] == ["ViewRelationMap.matrix"]


def test_every_public_dataclass_has_a_valid_construction():
    for cls in PUBLIC_DATACLASSES:
        cls(**VALID_ARGS.get(cls, {}))


# Values of the wrong type for a number, an array or an object field: a
# word, a number written as a string (numpy would parse it), None, a list
# and a bool
WRONG_TYPES = {"word": "a", "numeric string": "0.5", "None": None, "list": [1.0], "bool": True}


def takes(cls, field: str, value) -> bool:
    """Whether `value` is valid for `field` of `cls` by its declared rule:
    None where it may be None, a string where it is one, and [1.0] where it
    holds floats of any length, such as EvalConfig.sample_xs."""
    rule = RULES[cls, field]
    return rule is not None and (
        (value is None and rule.none)
        or (isinstance(value, str) and rule.cls is str)
        or (value == [1.0] and rule.kind in ("array", "tuple") and rule.shape == (None,))
    )


TYPE_CASES = [(cls, field, kind) for cls, field in RULES for kind, value in WRONG_TYPES.items() if not takes(cls, field, value)]


@pytest.mark.parametrize("cls, field, kind", TYPE_CASES, ids=[f"{cls.__name__}.{field}-{kind}" for cls, field, kind in TYPE_CASES])
def test_every_field_refuses_a_wrong_type_naming_it(cls, field, kind):
    # Not a bare TypeError or ValueError, and never accepted: a LaneBevError
    # (InvalidValue, or ShapeMismatch for a scalar where an array goes) naming
    # Class.field, and the index of a wrong entry in a list of objects
    with pytest.raises(LaneBevError, match=rf"^{cls.__name__}\.{field}(\[\d+\])?: "):
        cls(**{**VALID_ARGS.get(cls, {}), field: WRONG_TYPES[kind]})


# A one-scale pyramid: a 1x2 front view mapped to a 1x2 BEV
_PYRAMID = {
    "maps": {8: ViewRelationMap(np.eye(2), (1, 2), (1, 2))},
    "features": {8: FeatureTensor(np.ones((1, 2, 1)), scale=8)},
    "spec": PyramidSpec(scales=(8,), bev_shape=(1, 2)),
}
# An 8 x 4 grid, one lane down it, its truth and an ideal prediction
_SPEC = GridSpec(x_min=3.0, x_max=7.0, y_min=-1.0, y_max=1.0, cell=0.5)
_LANE = Lane3D(np.array([[3.0, 0.1, 0.0], [7.0, 0.1, 0.0]]), id=1)
_GT = lanebev.encode_lanes([_LANE], _SPEC)
_IDEAL = lanebev.ideal_prediction(_GT, _SPEC, embed_dim=2)
_INSTANCE = LaneInstance(cluster_id=0, points=_LINE)
_FIT = lanebev.fit_lanes([_INSTANCE])[0]
_SCENE = SceneRecord(**VALID_ARGS[SceneRecord])
_FEATURES = FeatureTensor(np.ones((1, 2, 1)))
_LOSS_ARGS = {
    "pred3d": PredictionBatch(raw_confidence=_Z2, raw_offset=_Z2, embedding=_Z3, height=_Z2),
    "gt3d": GridTensors(confidence=_Z2, offset=_Z2, height=_Z2, instance=_Z2),
    "pred2d": FrontViewPrediction(raw_seg=_Z2, embedding=_Z3),
    "gt2d": FrontViewTruth(mask=_Z2, instance=_Z2),
}
_PAIR = {"pred": _LOSS_ARGS["pred3d"], "gt": _LOSS_ARGS["gt3d"]}


def declared(fn) -> dict:
    """The rule of each argument that errors._checked checks for `fn`, by name; none for an unchecked function."""
    return {name: rule for _, name, _, rule in fn._checks()} if hasattr(fn, "_checks") else {}


# A valid call of every function whose arguments are declared (errors._checked).
# Which arguments it checks, by which rule, is read from its declarations
# (`declared()`), as RULES reads the fields'
VALID_CALLS = {
    Homography().apply: {"points": np.zeros((2, 2))},
    lanebev.project_ground_point: {"rig": canonical_rig(), "x": 10.0, "y": 0.0},
    project_ground_points: {"rig": canonical_rig(), "points_xy": np.array([[10.0, 0.0]])},
    lanebev.mean_virtual_camera: {"rigs": [canonical_rig()]},
    lanebev.compute_homography: {"src": canonical_rig(), "dst": canonical_rig()},
    lanebev.warp_image: {"image": np.ones((3, 4)), "h": Homography(), "out_size": (4, 3)},
    bilinear_operator: {"sx": np.zeros(2), "sy": np.zeros(2), "src_shape": (2, 2)},
    data_io.write_tensor: {"array": np.ones((2, 2)), "path": os.devnull},
    data_io.rig_to_dict: {"rig": canonical_rig()},
    data_io.save_rig: {"rig": canonical_rig(), "path": os.devnull},
    data_io.lanes_to_dict: {"lanes": [_LANE], "fits": [_FIT]},
    data_io.save_lanes: {"lanes": [_LANE], "path": os.devnull, "fits": [_FIT]},
    data_io.scene_to_dict: {"scene": _SCENE},
    data_io.save_scene: {"scene": _SCENE, "path": os.devnull},
    data_io.parse_openlane_frame: {"json_text": data_io.export_openlane_frame(_SCENE)},
    data_io.export_openlane_frame: {"scene": _SCENE, "file_path": "frame.jpg"},
    data_io.write_pnm: {"image": np.ones((2, 2)), "path": os.devnull},
    lanebev.encode_lanes: {"lanes": [_LANE], "spec": _SPEC},
    simplex_vertices: {"n": 2, "dim": 2},
    lanebev.ideal_prediction: {"gt": _GT, "spec": _SPEC},
    sigmoid: {"x": np.zeros((2, 2))},
    binary_cross_entropy: {"raw": np.zeros((2, 2)), "target": np.ones((2, 2))},
    lanebev.conf_loss: _PAIR,
    lanebev.offset_loss: _PAIR,
    lanebev.height_loss: _PAIR,
    lanebev.embed_loss: {"embedding": _Z3, "instance": _Z2},
    lanebev.seg_loss_2d: {"raw_seg": np.zeros((2, 2)), "mask": np.ones((2, 2))},
    lanebev.total_loss: _LOSS_ARGS,
    finite_difference_gradient: {"f": np.sum, "x": np.zeros(2)},
    run_gradient_suite: {"seed": 0, "batches": 1},
    lanebev.resample_lane: {"lane": _LANE, "xs": np.array([3.0, 5.0])},
    lanebev.match_lanes: {"preds": [_LANE], "gts": [_LANE]},
    lanebev.evaluate: {"preds": [_LANE], "gts": [_LANE]},
    lanebev.evaluate_frames: {"frames": [([_LANE], [_LANE])]},
    _FIT.y: {"x": np.array([3.0, 5.0])},
    _FIT.z: {"x": np.array([3.0, 5.0])},
    lanebev.decode_grid: {"pred": _IDEAL, "spec": _SPEC},
    lanebev.fit_lanes: {"instances": [_INSTANCE]},
    lanebev.decode_lanes: {"pred": _IDEAL, "spec": _SPEC},
    jittered_rig: {"rng": np.random.default_rng(0), "rot_deg": 1.0, "trans_m": 1.0},
    lanebev.generate_scene: {"params": SceneParams()},
    lanebev.render_ground_pattern: {"rig": canonical_rig(), "pattern": np.ones((5, 4)), "out_size": (4, 3)},
    checkerboard: {},
    lanebev.build_ipm_sampling_map: {"virtual_rig": canonical_rig(), "fv_shape": (36, 64), "scale": 16},
    lanebev.apply_vrm: {"vrm": _PYRAMID["maps"][8], "fv": _PYRAMID["features"][8]},
    lanebev.apply_pyramid: _PYRAMID,
    lanebev.fit_vrm_least_squares: {"samples": [(_FEATURES, _FEATURES)], "ridge": 1.0},
}
WRONG_ARGS = {**WRONG_TYPES, "NaN": float("nan")}


def wrong_values(rule, valid) -> dict:
    """The values of the wrong type or range for an argument of `rule` whose
    valid value is `valid`: NOT_NUMBERS of it and a word, None and a bool
    for an array; WRONG_ARGS for any other, with a fraction for an integer
    and a value below the bound for a bounded number; None only where the
    argument may not be None, and no value of an object rule's class (a
    word and a numeric string are a str)."""
    if rule.kind == "numbers":
        wrong = {**{kind: spoil(valid) for kind, spoil in NOT_NUMBERS.items()}, "word": "a", "None": None, "bool": True}
    else:
        wrong = dict(WRONG_ARGS)
    if rule.integer:
        wrong["fraction"] = 1.5
    if rule.kind in ("scalar", "ints") and rule.bounds != "finite":
        low, _, low_in, _ = _interval(rule.bounds)
        below = low - 1 if low_in else low
        wrong["below bound"] = below if rule.kind == "scalar" else (below,) * rule.shape[0]
    if rule.none:
        del wrong["None"]
    return {kind: value for kind, value in wrong.items() if not (rule.kind == "object" and isinstance(value, rule.cls))}


# (function, argument, kind) for every declared argument of every function
# in VALID_CALLS and each of its wrong_values
ARG_CASES = [
    (fn, arg, kind) for fn in VALID_CALLS for arg, rule in declared(fn).items() for kind in wrong_values(rule, VALID_CALLS[fn].get(arg))
]


@pytest.mark.parametrize("fn, arg, kind", ARG_CASES, ids=[f"{fn.__qualname__}.{arg}-{kind}" for fn, arg, kind in ARG_CASES])
def test_every_checked_argument_refuses_a_wrong_value_naming_it(fn, arg, kind):
    # each once escaped as a bare TypeError, ValueError, AttributeError or
    # RuntimeWarning, named another argument, or was accepted: NonFiniteInput
    # for NaN where a real number goes, else InvalidValue, naming
    # `function.arg`, or `function.arg[0]` for the number in the list [1.0]
    # given where a list goes
    valid = VALID_CALLS[fn]
    fn(**valid)
    rule = declared(fn)[arg]
    wrong = wrong_values(rule, valid.get(arg))[kind]
    error = NonFiniteInput if kind == "NaN" and rule.kind == "scalar" and not rule.integer else InvalidValue
    index = r"\[0\]" if kind == "list" and rule.kind == "list" else ""
    with pytest.raises(error, match=rf"^{re.escape(fn.__qualname__)}\.{arg}{index}: "):
        fn(**{**valid, arg: wrong})


ENTRY_CASES = [
    (fn, arg, kind) for fn in VALID_CALLS for arg, rule in declared(fn).items() if rule.kind in ("list", "dict") for kind in WRONG_ARGS
]


@pytest.mark.parametrize("fn, arg, kind", ENTRY_CASES, ids=[f"{fn.__qualname__}.{arg}-{kind}" for fn, arg, kind in ENTRY_CASES])
def test_every_entry_of_a_checked_list_or_dict_refuses_a_wrong_type_naming_it(fn, arg, kind):
    # a wrong entry names `function.arg[i]` or `function.arg[key]`; a dict's
    # every entry is checked, also under a key nothing reads
    valid = VALID_CALLS[fn]
    entries = valid[arg]
    wrong = [*entries, WRONG_ARGS[kind]] if isinstance(entries, list) else {**entries, -1: WRONG_ARGS[kind]}
    index = 1 if isinstance(entries, list) else -1
    with pytest.raises(InvalidValue, match=rf"^{re.escape(fn.__qualname__)}\.{arg}\[{index}\]: "):
        fn(**{**valid, arg: wrong})


@pytest.mark.parametrize(
    "frames, named",
    [
        ("x", "frames"),
        ({"a": 1}, "frames"),
        ([("x", "y")], "frames[0][0]"),
        ([([_LANE], "y")], "frames[0][1]"),
        ([([_LANE], [_LANE]), [[_LANE], [_LANE]]], "frames[1]"),
        ([([_LANE],)], "frames[0]"),
        ([([_LANE], [_LANE], [])], "frames[0]"),
        ([([_LANE], [_LANE, "x"])], "frames[0][1][1]"),
    ],
    ids=["word", "dict", "word lanes", "word truth", "list frame", "one side", "three sides", "word lane"],
)
def test_evaluate_frames_names_a_wrong_frame_or_lane(frames, named):
    with pytest.raises(InvalidValue, match=f"^evaluate_frames\\.{re.escape(named)}: "):
        lanebev.evaluate_frames(frames)


@pytest.mark.parametrize(
    "samples, named",
    [
        ([("x", "y")], "samples[0][0]"),
        ([(_FEATURES, "y")], "samples[0][1]"),
        ([(_FEATURES,)], "samples[0]"),
        ([(_FEATURES, _FEATURES, _FEATURES)], "samples[0]"),
    ],
    ids=["word features", "word BEV", "one side", "three sides"],
)
def test_fit_vrm_least_squares_names_a_wrong_sample(samples, named):
    with pytest.raises(InvalidValue, match=f"^fit_vrm_least_squares\\.{re.escape(named)}: "):
        lanebev.fit_vrm_least_squares(samples, ridge=1.0)


def public_functions() -> dict:
    """Every public function and method of the package, by `module.qualname`:
    each module's own functions and its own classes' methods, their names
    without a leading _."""
    found = {}
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(inspect.unwrap(obj), "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{module.__name__}.{name}"] = obj
            elif inspect.isclass(obj):
                methods = {m: fn for m, fn in vars(obj).items() if inspect.isfunction(fn) and not m.startswith("_")}
                found.update({f"{module.__name__}.{name}.{m}": fn for m, fn in methods.items()})
    return found


PUBLIC_FUNCTIONS = public_functions()
# An annotation that declares a rule: a number, an array, a size, a string or
# a lanebev class, alone, in a container, or in a union whose every other
# alternative does too or is None (`str | Path` declares none)
DECLARING = re.compile(rf"\b(int|float|str|bytes|bytearray|np\.ndarray|np\.random\.Generator|{'|'.join(sorted(LANEBEV_CLASSES))})\b")


def declares(annotation: str) -> bool:
    """Whether `annotation` declares a rule: each alternative of its
    outermost union but None names what DECLARING matches."""

    def alternatives(node):
        return alternatives(node.left) + alternatives(node.right) if isinstance(node, ast.BinOp) else [ast.unparse(node)]

    return all(DECLARING.search(text) for text in alternatives(ast.parse(annotation, mode="eval").body) if text != "None")


def test_every_declared_argument_of_a_public_function_is_checked():
    # an argument whose annotation declares a rule goes through
    # errors._checked; one that does not ends in a bare error on a wrong value
    unchecked = [
        f"{qualname}.{param.name}"
        for qualname, fn in PUBLIC_FUNCTIONS.items()
        for param in inspect.signature(fn).parameters.values()
        if param.annotation is not inspect.Parameter.empty and declares(param.annotation) and param.name not in declared(fn)
    ]
    assert unchecked == []


def test_every_checked_function_has_a_valid_call():
    # so every declared argument is given each wrong value above
    checked = sorted(qualname for qualname, fn in PUBLIC_FUNCTIONS.items() if hasattr(fn, "_checks"))
    assert checked == sorted(f"{fn.__module__}.{fn.__qualname__}" for fn in VALID_CALLS)


def test_every_public_function_keeps_its_signature_module_and_qualname():
    # the benchmark names its spans `module.__qualname__`, and callers and
    # these tests read inspect.signature: a wrapper shows its function's
    # parameters, those its code was compiled with, not (*args, **kwargs)
    for qualname, fn in PUBLIC_FUNCTIONS.items():
        assert f"{fn.__module__}.{fn.__qualname__}" == qualname
        code = inspect.unwrap(fn).__code__
        assert list(inspect.signature(fn).parameters) == list(code.co_varnames[: code.co_argcount + code.co_kwonlyargcount])


@pytest.mark.parametrize("kind", [*WRONG_ARGS, "array"])
@pytest.mark.parametrize("arg", ["maps", "features"])
def test_every_pyramid_entry_refuses_a_wrong_type_naming_it(arg, kind):
    # apply_pyramid's per-scale entries once escaped as bare AttributeErrors
    wrong = {**WRONG_ARGS, "array": np.ones((1, 2, 1))}[kind]
    with pytest.raises(InvalidValue, match=rf"^apply_pyramid\.{arg}\[8\]: "):
        lanebev.apply_pyramid(**{**_PYRAMID, arg: {8: wrong}})


def test_no_cli_flag_respells_a_config_field():
    # A value that a config file holds is set in that file only.  The one
    # exception is --seed: the explicit override of the scene file's seed
    # on synth and pipeline, and the gradient suite's seed on losscheck.
    fields = {f.name for cls in (GridSpec, DecodeParams, EvalConfig, SceneParams) for f in dataclasses.fields(cls)}
    respelled = {
        (command, flag.name)
        for command, spec in _COMMANDS.items()
        for flag in spec.flags
        if flag.name[2:].replace("-", "_") in fields
    }
    assert respelled == {("synth", "--seed"), ("pipeline", "--seed"), ("losscheck", "--seed")}
