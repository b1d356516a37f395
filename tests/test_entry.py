"""The process entry ``tautilt.cli.run``: the console script and
``python -m tautilt.cli`` both go through it.

* ``main`` has no process-wide side effect: called in process, it leaves
  the collector unfrozen.  ``run`` alone freezes it (``gc.freeze``) before
  the exit, and no other package code does.
* A cold run and a hit of ``python -m tautilt.cli`` print the bytes that
  ``main`` prints in process.
* The console script of ``pyproject.toml`` is the function the
  ``__main__`` block calls.
* A reader that closed the pipe makes the run exit 2 with one ``error:``
  line, and an interrupt exits 130 with one, neither with a traceback.
"""

import ast
import contextlib
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tautilt
from tautilt import cli

SRC = Path(tautilt.__file__).parent
PYPROJECT = SRC.parent.parent / "pyproject.toml"
ENV = dict(os.environ, PYTHONPATH=str(SRC.parent))


@pytest.fixture()
def s3(tmp_path):
    path = tmp_path / "S3.json"
    path.write_text(json.dumps({"degree": 3, "generators": [[[1, 2]], [[1, 2, 3]]]}))
    return str(path)


def _in_process(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def _child(argv):
    return subprocess.run(
        [sys.executable, "-m", "tautilt.cli", *argv], env=ENV, capture_output=True, timeout=120
    )


def test_main_in_process_leaves_the_collector_unfrozen(s3):
    before = gc.get_freeze_count()
    code, _ = _in_process(["blocks", s3, "--p", "2", "--no-cache"])
    assert code == 0
    assert gc.get_freeze_count() == before


def test_only_run_freezes_the_collector():
    """``freeze`` is named once in the package's sources, in ``cli.run``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # the innermost function around each node: ast.walk visits outer first
        owner = {
            id(sub): node.name
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for sub in ast.walk(node)
        }
        found += [
            (path.stem, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "freeze"
        ]
    assert found == [("cli", "run")]


def test_run_freezes_before_the_exit(s3):
    """An exit handler of the child sees the collector frozen."""
    child = textwrap.dedent(
        f"""
        import atexit, gc, sys
        from tautilt import cli

        atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
        sys.argv = ["tautilt", "blocks", {s3!r}, "--p", "2", "--no-cache"]
        cli.run()
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", child], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("\nfrozen True\n")


def test_cold_run_and_hit_print_the_bytes_of_main(s3, tmp_path):
    argv = ["stt", s3, "--p", "2"]
    code, expected = _in_process([*argv, "--no-cache"])
    assert code == 0
    cache = ["--cache-dir", str(tmp_path / "cache")]
    cold = _child([*argv, *cache])
    assert list((tmp_path / "cache").glob("*.json"))  # the next run is a hit
    hit = _child([*argv, *cache])
    for done in (cold, hit):
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, b"")


def _console_script() -> tuple[str, str]:
    """(module, function) of the ``tautilt`` console script."""
    scripts = PYPROJECT.read_text().split("[project.scripts]", 1)[1]
    module, function = re.search(r'^tautilt = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    return module, function


def _main_block_calls() -> list[str]:
    """The names of the functions that ``cli``'s ``__main__`` block calls."""
    tree = ast.parse((SRC / "cli.py").read_text())
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    return [
        sub.func.id for sub in ast.walk(block)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
    ]


def test_the_console_script_is_the_main_block_entry():
    module, function = _console_script()
    target = getattr(importlib.import_module(module), function)
    assert _main_block_calls() == ["run"]
    assert target is cli.run


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_reader_exits_2_with_one_line(s3, tmp_path, buffered):
    """The parent closes its read end before the child starts: the write
    fails in ``main`` when stdout is unbuffered, in the flush of ``run``
    when it is buffered."""
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    err = tmp_path / "stderr"
    with open(err, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "tautilt.cli", "blocks", s3, "--p", "2", "--no-cache"],
            env=env, stdout=subprocess.PIPE, stderr=fh,
        )
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert (code, err.read_text()) == (2, "error: cannot write stdout\n")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_reader_of_a_hit_exits_2_without_numpy(s3, tmp_path, buffered):
    """A cache hit into a closed pipe: the failed write of the unbuffered
    case reaches ``cli._failure``, which loads no numeric module to find
    that it is none of theirs.  An exit handler of the child writes
    whether numpy is loaded to a file, since stdout is closed."""
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert _child(["blocks", s3, "--p", "2", *cache]).returncode == 0
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    seen, err = tmp_path / "numpy", tmp_path / "stderr"
    child = textwrap.dedent(
        f"""
        import atexit, sys
        from pathlib import Path
        from tautilt import cli

        atexit.register(lambda: Path({str(seen)!r}).write_text(str("numpy" in sys.modules)))
        sys.argv = ["tautilt", "blocks", {s3!r}, "--p", "2", *{cache!r}]
        cli.run()
        """
    )
    with open(err, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-c", child], env=env, stdout=subprocess.PIPE, stderr=fh
        )
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert (code, err.read_text()) == (2, "error: cannot write stdout\n")
    assert seen.read_text() == "False"


def test_an_interrupt_exits_130_with_one_line():
    child = textwrap.dedent(
        """
        from tautilt import cli

        def interrupted():
            raise KeyboardInterrupt

        cli.main = interrupted
        cli.run()
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", child], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (130, "", "error: interrupted\n")
