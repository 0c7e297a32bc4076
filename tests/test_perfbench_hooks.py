"""Every function the benchmark traces must still exist.

``perfbench/layers.py`` names its hook targets as ``module:attr[.attr]``
strings, and the benchmark lists a target it cannot find as missing rather
than failing, so a refactor that renames or inlines one would silently lose a
per-layer metric or the set-up mark.  The file is parsed, not imported.

A traced command must also give the benchmark a result it can report: the
traced-run test runs ``perfbench/child.py`` as the benchmark does and
computes the per-layer metrics with perfbench's own ``layers``.
"""

import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"

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


RUN_CONFIG = """\
d_c = 2 4
n_layers = 1
n_shots_train = 64
n_steps = 2
kl_shots = 64
kl_repeats = 2
"""


def traced(tmp_path, name, argv):
    """Run ``perfbench/child.py`` traced on one command, as the benchmark's
    traced runs do; its result record."""
    spec = {"src": str(ROOT / "src"), "argv": argv, "trace": True, "run": name,
            "out": str(tmp_path / f"{name}.out.json")}
    (tmp_path / f"{name}.spec.json").write_text(json.dumps(spec))
    child = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(tmp_path / f"{name}.spec.json")]
    done = subprocess.run(child, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(Path(spec["out"]).read_text())


def test_traced_commands_give_finite_layer_metrics(tmp_path, monkeypatch):
    """A traced train, sweep and warmstart each exit 0 with spans from which
    every per-layer metric is finite, so the benchmark can report them; a
    warmstart runs ``train`` once."""
    monkeypatch.syspath_prepend(str(LAYERS.parent))
    from layers import layer_metrics
    from spans import Span

    (tmp_path / "one.cfg").write_text(RUN_CONFIG.replace("d_c = 2 4", "d_c = 2"))
    (tmp_path / "grid.sweep").write_text(RUN_CONFIG)
    run = str(tmp_path / "run")
    commands = {
        "train": (["train", "-c", str(tmp_path / "one.cfg"), "-o", run], 2),
        "sweep": (["sweep", "-c", str(tmp_path / "grid.sweep"), "-o", str(tmp_path / "sweep")], 4),
        "warmstart": (["warmstart", run, "--step", "0", "--steps", "1", "-o", str(tmp_path / "ws")], 1),
    }
    for name, (argv, steps) in commands.items():
        result = traced(tmp_path, name, argv)
        assert result["code"] == 0 and result["spans"], name
        assert set(result["missing_hooks"]) <= KNOWN_MISSING, name
        spans = [Span(*s) for s in result["spans"]]
        metrics = layer_metrics(spans, result["main_end"] - result["main_start"], steps)
        json.dumps(metrics, allow_nan=False)
        assert all(math.isfinite(v) for v in metrics.values()), name
        if name == "warmstart":
            assert [s.name for s in spans].count("training.train") == 1
