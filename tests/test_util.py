"""``util.create``, the one opener of every file the package writes."""

import ast
import os
import stat
from pathlib import Path

import pytest

import pumpwatch
from pumpwatch.util import create

_PACKAGE = Path(pumpwatch.__file__).parent


def test_create_replaces_a_hard_linked_file_and_leaves_no_tail(tmp_path):
    path, link = tmp_path / "out.txt", tmp_path / "link.txt"
    path.write_text("the old bytes, longer than the new ones\n")
    os.link(path, link)
    with create(path) as f:
        f.write("new\n")
    assert link.read_text() == "the old bytes, longer than the new ones\n"
    assert path.read_text() == "new\n"


def test_create_writes_through_a_symlink_and_makes_a_missing_file(tmp_path):
    target, path = tmp_path / "target.txt", tmp_path / "out.txt"
    target.write_text("the old bytes\n")
    path.symlink_to(target)
    with create(path) as f:
        f.write("new\n")
    assert path.is_symlink() and target.read_text() == "new\n"
    with create(tmp_path / "fresh.txt") as f:
        f.write("made\n")
    assert (tmp_path / "fresh.txt").read_text() == "made\n"


@pytest.mark.parametrize("via_symlink", [False, True], ids=["fifo", "symlink-to-fifo"])
def test_create_writes_into_a_fifo_and_keeps_it(tmp_path, via_symlink):
    """A special file at an output path (a FIFO here, or a device such as
    ``os.devnull``) is written through, never removed and replaced."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    path = tmp_path / "out" if via_symlink else fifo
    if via_symlink:
        path.symlink_to(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with create(path) as f:
            f.write("new\n")
        assert os.read(reader, 64) == b"new\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and path.is_symlink() == via_symlink


def _opens_for_writing(call):
    """Whether ``call`` writes a file: ``write_text``, ``write_bytes``, an
    ``os.open`` whose flags name O_CREAT or O_TRUNC, or any other ``open``
    whose mode has w, x, a or + or is not a literal."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    func = ast.unparse(call.func)
    at = 1 if func in ("open", "io.open", "os.open") else 0  # Path.open takes no path
    mode = call.args[at] if len(call.args) > at else next(
        (k.value for k in call.keywords if k.arg in ("mode", "flags")), ast.Constant("r"))
    if func == "os.open":
        return any(getattr(n, "attr", getattr(n, "id", None)) in ("O_CREAT", "O_TRUNC")
                   for n in ast.walk(mode))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wxa+"))


def _writers(source):
    """Line numbers of the calls in ``source`` that write a file, outside a
    function named ``create``."""
    found = []

    def visit(node, in_create):
        in_create = in_create or (isinstance(node, ast.FunctionDef) and node.name == "create")
        if isinstance(node, ast.Call) and not in_create and _opens_for_writing(node):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_create)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("source", [
    "open(p, 'w')", "open(p, 'wb')", "open(p, mode='a')", "open(p, 'x')", "open(p, 'r+')",
    "open(p, m)", "p.open('w')", "Path(p).write_text(s)", "p.write_bytes(b)",
    "os.open(p, os.O_WRONLY | os.O_CREAT)", "os.open(p, flags=O_TRUNC)",
    "def create(p):\n    pass\nopen(p, 'w')"])
def test_the_writer_scan_finds_each_kind_of_writer(source):
    assert _writers(source)


def test_the_writer_scan_passes_readers_and_create():
    assert _writers("open(p)\nopen(p, 'rb')\np.open()\nos.open(os.devnull, os.O_WRONLY)\n"
                    "def create(p):\n    return open(p, 'w')") == []


def test_util_create_is_the_only_writer_in_the_package():
    """Every file the package writes is removed, then created: never
    truncated in place and never written through a link."""
    found = {str(path.relative_to(_PACKAGE)): lines for path in sorted(_PACKAGE.rglob("*.py"))
             if (lines := _writers(path.read_text()))}
    assert found == {}
