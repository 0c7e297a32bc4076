"""Tests of the benchmark's tracing and comparison logic.

    python3 -m pytest -q perfbench
"""

import os
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from compare import verdict
from layers import HOOKS, layer_metrics, missing_metrics
from reference import REFERENCE_S, STARTUP_S, startup_round
from run import descendants, summarize
from spans import Hooks, Span, Tracer, resolve, self_times

SRC = Path(__file__).resolve().parent.parent / "src"


def span(id, start, end, parent=None, name="x"):
    return Span(id, name, start, end, parent, 1, "r", None)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 3.0, parent=1),
        span(3, 2.0, 5.0, parent=1),  # overlaps span 2
        span(4, 8.0, 12.0, parent=1),  # runs past its parent's end
        span(5, 1.5, 2.5, parent=2),  # grandchild: only its own parent loses it
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_self_time_of_nested_children_counts_them_once():
    spans = [span(1, 0.0, 4.0), span(2, 1.0, 3.0, parent=1), span(3, 1.5, 2.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(2.0)


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("fake_traced")

    def outer(x):
        return module.inner(x) + 1

    def inner(x):
        return 2 * x

    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    module.outer, module.inner, module.Base, module.Child = outer, inner, Base, Child
    monkeypatch.setitem(sys.modules, "fake_traced", module)
    return module


def test_wrappers_record_parent_child_spans_and_are_all_removed(fake_module):
    originals = (fake_module.outer, fake_module.inner, fake_module.Base.__dict__["method"])
    tracer = Tracer("run-1")
    hooks = Hooks()
    for name, target in [
        ("outer", "fake_traced:outer"),
        ("inner", "fake_traced:inner"),
        ("method", "fake_traced:Base.method"),
        ("child_method", "fake_traced:Child.method"),  # inherited attribute
    ]:
        assert hooks.install(target, tracer.wrapper(name))
    assert fake_module.outer(3) == 7
    assert fake_module.Child().method() == "base"
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["method"].parent == by_name["child_method"].id
    assert {s.run for s in tracer.spans} == {"run-1"}

    hooks.remove_all()
    assert (fake_module.outer, fake_module.inner, fake_module.Base.__dict__["method"]) == originals
    assert "method" not in vars(fake_module.Child)
    count = len(tracer.spans)
    fake_module.outer(1)
    assert len(tracer.spans) == count


def test_missing_hook_targets_are_listed_not_raised(fake_module):
    hooks = Hooks()
    tracer = Tracer("r")
    for target in ["fake_traced:gone", "fake_traced:Base.gone", "fake_traced:Nope.method",
                   "no_such_module_for_perfbench:f"]:
        assert not hooks.install(target, tracer.wrapper("x"))
        assert resolve(target) is None
    assert len(hooks.missing) == 4
    hooks.remove_all()


def test_missing_metrics_follow_lost_spans():
    statevector = [t for name, t, _ in HOOKS if name == "sim.statevector"]
    lost = missing_metrics(statevector)
    assert "sim.statevector.calls" in lost and "sim.statevector.share" in lost
    assert "sim.density.calls" not in lost
    # a span that keeps some of its hooks is still measured
    assert missing_metrics(["bornbench.cli:circuit_probabilities"]) == []


def test_real_hooks_trace_a_short_run_and_restore_bornbench():
    sys.path.insert(0, str(SRC))
    try:
        import bornbench.cli  # noqa: F401  (hook targets resolve through it)
        from bornbench.training import TrainingConfig, train
    finally:
        sys.path.remove(str(SRC))

    before = {}
    for _, target, _ in HOOKS:
        found = resolve(target)
        if found:
            before[target] = vars(found[0]).get(found[1])
    tracer = Tracer("r")
    hooks = Hooks()
    for name, target, measure in HOOKS:
        hooks.install(target, tracer.wrapper(name, measure))
    try:
        train(TrainingConfig(d_c=2, n_layers=1, n_shots_train=16, n_steps=2, kl_shots=16, kl_repeats=2))
    finally:
        hooks.remove_all()
    after = {t: vars(resolve(t)[0]).get(resolve(t)[1]) for t in before}
    assert after == before

    metrics = layer_metrics(tracer.spans, main_s=1.0, steps=2)
    names = {s.name for s in tracer.spans}
    if {"mmd.gradient", "sim.statevector", "sim.eval"} <= names:
        assert metrics["mmd.gradient.calls"] == 2
        assert metrics["sim.statevector.calls"] == metrics["sim.evals"]
        assert metrics["sim.density.calls"] == 0
        assert 0.0 < metrics["sim.distinct_theta_ratio"] <= 1.0


def test_times_leave_out_pauses_and_steal_and_unmarked_set_up_is_missing():
    rep = {"traced": False, "code": 0, "spawn": 0.0, "exit": 2.0, "main_start": 0.1,
           "main_end": 1.9, "setup_end": None, "peak_rss_mb": 40.0,
           "reference": [REFERENCE_S / 2] * 3,  # the machine ran at twice the reference speed
           "startup": STARTUP_S / 4,  # and started Python at four times the reference speed
           "stopped": [(0.5, 0.75), (1.9, 2.2)],  # the second pause runs past exit
           "steal": [(0.0, 5.0), (3.0, 5.0)]}
    e2e = summarize([rep, dict(rep, exit=3.0)], steps=10, trace=False)["end_to_end"]
    assert e2e["setup_s"] is None and e2e["steps_per_ref_s"] is None
    assert e2e["wall_s"] == pytest.approx((1.65 + 2.45) / 2)
    assert e2e["wall_ref_s"] == pytest.approx(1.65 + 2.45)
    assert e2e["peak_rss_mb"] == 40.0
    marked = dict(rep, setup_end=0.9)
    e2e = summarize([marked], steps=10, trace=False)["end_to_end"]
    assert e2e["setup_s"] == pytest.approx(4 * 0.65)
    assert e2e["steps_per_s"] == pytest.approx(10 / 1.0)
    # the hypervisor took 0.4 s from each vCPU, evenly over [0, 2]
    stolen = dict(rep, steal=[(0.0, 5.0), (2.0, 5.0 + 0.4 * os.cpu_count())])
    e2e = summarize([stolen], steps=10, trace=False)["end_to_end"]
    assert e2e["wall_s"] == pytest.approx(1.65 - 0.4)


def test_startup_round_times_a_fresh_interpreter():
    assert 0.0 < startup_round() < 60.0


def test_descendants_include_a_grandchild_process():
    child = subprocess.Popen([sys.executable, "-c", "import subprocess; subprocess.run(['sleep', '5'])"])
    tree = [child.pid]
    try:
        deadline = time.monotonic() + 5.0
        while len(tree) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
            tree = descendants(child.pid)
        assert tree[0] == child.pid and len(tree) == 2
    finally:
        for pid in reversed(tree):
            os.kill(pid, signal.SIGKILL)
        child.wait()


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 10.0, 7.0, 13.0, 10.0, 10.0]
    assert verdict(parent, faster, 0.1, lower_is_better=True)[0] == "gain"
    assert verdict(parent, slower, 0.1, lower_is_better=True)[0] == "regression"
    assert verdict(parent, slower, 0.1, lower_is_better=False)[0] == "gain"
    assert verdict(parent, list(parent), 0.1, lower_is_better=True)[0] == "same"
    assert verdict(parent, noisy, 0.1, lower_is_better=True)[0] == "unresolved"
    assert verdict(parent[:5], faster[:5], 0.1, lower_is_better=True)[0] == "same"
