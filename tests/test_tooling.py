"""The test configuration itself: a failing test is reported, not lost; the
package writes files through one writer only; and no CLI flag re-spells a
config file's field."""

import ast
import dataclasses
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from lanebev.cli import _COMMANDS
from lanebev.lane_grid import GridSpec
from lanebev.metrics import EvalConfig
from lanebev.postproc import DecodeParams
from lanebev.synth import SceneParams

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


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


def file_writes(source: str) -> list[str]:
    """Each call in `source` that writes a file outside data_io._write_file.

    That is a write_text or write_bytes call, and an open call whose mode
    is not a literal without w, a, x or +; os.open, whose flags are not a
    mode string, counts too.
    """
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if where != "_write_file" and isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_text", "write_bytes"):
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
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("module", sorted((ROOT / "src" / "lanebev").glob("*.py")), ids=lambda p: p.name)
def test_every_file_write_goes_through_the_one_writer(module):
    assert file_writes(module.read_text()) == []


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

        def load(path):
            open(path)
            open(path, "rb")
            path.open()
            path.open(encoding="utf-8")

        def _write_file(path):
            os.open(path, os.O_WRONLY | os.O_CREAT)
        """
    )
    assert file_writes(source) == [f"line {n}: {kind}" for n, kind in [(3, "write_text"), (4, "write_bytes")] + [(n, "open") for n in range(5, 11)]]


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
