"""Every function the benchmark traces must still exist.

``perfbench/layers.py`` names its hook targets as ``module:attr[.attr]``
strings, and the benchmark lists a target it cannot find as missing rather
than failing, so a refactor that renames or inlines one would silently lose a
per-layer metric or the set-up mark.  The file is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

# Hooks on names those modules no longer import; known gaps of the benchmark.
KNOWN_MISSING = {"bornbench.mmd:sample_histogram", "bornbench.metrics:sample_histogram"}


def hook_targets():
    """The target strings of ``HOOKS`` (second tuple entry) and of
    ``SETUP_MARKS``."""
    lists = {}
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            lists[node.targets[0].id] = node.value.elts
    hooks = [ast.literal_eval(entry.elts[1]) for entry in lists["HOOKS"]]
    marks = [ast.literal_eval(entry) for entry in lists["SETUP_MARKS"]]
    return hooks, marks


def resolves(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return callable(owner)


def test_every_hook_and_setup_mark_resolves():
    hooks, marks = hook_targets()
    assert len(hooks) > 20 and len(marks) > 3  # the file was parsed
    missing = {target for target in hooks + marks if not resolves(target)}
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)
    # every setup mark resolves, so set-up time is measured
    assert not missing & set(marks)
