"""Only ``runio`` writes files, and no library code is there for tests alone.

Every on-disk format lives in ``bornbench.runio``, so a change to how a run
is written (for example, writing it step by step) touches one module.  Every
function and class is used by the program itself.  The sources are parsed,
not imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bornbench"
MODULES = sorted(SRC.glob("*.py"))


def file_writes(tree):
    """Line numbers of ``open`` in a writing mode, ``write_text`` /
    ``write_bytes`` and ``json.dump`` calls."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes):
                lines.append(node.lineno)
        elif name in ("write_text", "write_bytes", "dump"):
            lines.append(node.lineno)
    return lines


def imports(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_the_sources_were_found():
    assert {p.stem for p in MODULES} >= {"cli", "runio", "training"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "runio"], ids=lambda p: p.stem)
def test_only_runio_writes_files(path):
    tree = ast.parse(path.read_text())
    assert file_writes(tree) == [], f"{path.name} writes a file; move the format into runio"
    assert not imports(tree) & {"csv", "json"}, f"{path.name} imports a file format"


def test_the_check_sees_runio_write():
    tree = ast.parse((SRC / "runio.py").read_text())
    assert len(file_writes(tree)) >= 3 and {"csv", "json"} <= imports(tree)


def test_scoring_starts_no_threads():
    """The run loop owns the one qBAS thread pool of a run, and the metrics
    score on whatever pool it hands them.  ``training`` is the only module
    that imports ``concurrent.futures``: sweep rows run on the calling thread."""
    importers = {
        path.stem for path in MODULES if "concurrent.futures" in imports(ast.parse(path.read_text()))
    }
    assert importers == {"training"}



def uses(node):
    """Every name a statement loads, bare or as an attribute; imports and
    the names that definitions bind are not uses."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def test_every_definition_is_used_in_the_sources():
    """Library code that only tests call is deleted, not kept: every
    module-level function and class is used in ``src/`` outside its own
    definition (a recursive call does not count) and the package's
    re-export."""
    statements = [
        (path.stem, node)
        for path in MODULES
        if path.stem != "__init__"
        for node in ast.parse(path.read_text()).body
    ]
    names = [uses(node) for _, node in statements]
    unused = [
        f"{stem}.{node.name}"
        for stem, node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(node.name in used for (_, other), used in zip(statements, names) if other is not node)
    ]
    assert unused == []


def bound_imports(tree):
    """Each name an import binds; ``from __future__`` imports bind none."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    return bound


def test_every_import_is_used():
    """Every name a module imports is loaded somewhere in it; the package's
    ``__init__`` only re-exports, so it is not checked.  ``metrics`` keeps
    ``circuit_probabilities``, and ``cli`` keeps ``rng_stream``, only so that
    perfbench's ``bornbench.metrics:circuit_probabilities`` and
    ``bornbench.cli:rng_stream`` hooks resolve, until those hooks are
    dropped (ROADMAP item 5)."""
    unused = []
    for path in MODULES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in bound_imports(tree) if name not in loaded]
    assert unused == ["cli.rng_stream", "metrics.circuit_probabilities"]


def test_mmd_draws_nothing():
    """``mmd`` scores whatever it is given, so it imports no sampler; only
    ``training`` and ``metrics`` draw, and the package's ``__init__`` only
    re-exports."""
    samplers = {"sample_counts", "sample_histogram"}
    importers = {
        path.stem
        for path in MODULES
        if path.stem != "__init__" and samplers & set(bound_imports(ast.parse(path.read_text())))
    }
    assert importers == {"metrics", "training"}
    sim = ast.parse((SRC / "sim.py").read_text())
    assert samplers <= {node.name for node in sim.body if isinstance(node, ast.FunctionDef)}
