"""Which bornbench functions are traced, and the per-layer metrics derived
from their spans.

Every hook wraps a function at the module its caller looks it up in, so a
call from ``mmd_gradient`` to ``circuit_probabilities`` is caught at
``bornbench.mmd``.  Several hooks may share a span name; a layer metric sums
over all of them.
"""

from __future__ import annotations

import os
import statistics

from spans import self_times


def _theta_key(args, kwargs, result):
    theta = kwargs["theta"] if "theta" in kwargs else args[1]
    data = theta.tobytes() if hasattr(theta, "tobytes") else repr(list(theta)).encode()
    return hash(data)


def _shots(args, kwargs, result):
    return kwargs["n_shots"] if "n_shots" in kwargs else args[1]


def _dir_bytes(args, kwargs, result):
    total = 0
    for root, _, files in os.walk(result):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# (span name, hook target, per-call measure)
HOOKS = [
    ("cli.main", "bornbench.cli:main", None),
    ("cli.sweep", "bornbench.cli:cmd_sweep", None),
    ("cli.sweep.row", "bornbench.cli:_run_sweep_row", None),
    ("training.train", "bornbench.cli:train", None),
    ("runio.config", "bornbench.cli:load_config_file", None),
    ("runio.config", "bornbench.cli:config_from_items", None),
    ("runio.write", "bornbench.cli:write_run", _dir_bytes),
    ("ansatz.build", "bornbench.training:build_circuit", None),
    ("mmd.kernel", "bornbench.mmd:KernelSpec.__post_init__", None),
    ("mmd.gradient", "bornbench.training:mmd_gradient", None),
    ("mmd.loss", "bornbench.training:mmd_loss", None),
    ("mmd.loss", "bornbench.training:mmd_loss_exact", None),
    ("sim.eval", "bornbench.training:circuit_probabilities", _theta_key),
    ("sim.eval", "bornbench.mmd:circuit_probabilities", _theta_key),
    ("sim.eval", "bornbench.metrics:circuit_probabilities", _theta_key),
    ("sim.eval", "bornbench.cli:circuit_probabilities", _theta_key),
    ("sim.statevector", "bornbench.sim:run_statevector", None),
    ("sim.density", "bornbench.sim:evolve_density", None),
    ("sim.sample", "bornbench.training:sample_histogram", _shots),
    ("sim.sample", "bornbench.mmd:sample_histogram", _shots),
    ("sim.sample", "bornbench.metrics:sample_histogram", _shots),
    ("noise.channels", "bornbench.sim:depolarizing_kraus", None),
    ("noise.channels", "bornbench.sim:amplitude_damping_kraus", None),
    ("noise.channels", "bornbench.noise:NoiseModel.confusion_matrices", None),
    ("noise.readout", "bornbench.sim:apply_readout", None),
    ("metrics.kl", "bornbench.training:kl_sampling_summary", None),
    ("metrics.kl", "bornbench.cli:kl_sampling_summary", None),
    ("metrics.f1", "bornbench.training:f1_per_state", None),
    ("metrics.qbas", "bornbench.training:qbas_from_probs", None),
    ("training.adam", "bornbench.training:adam_step", None),
    ("training.rng_stream", "bornbench.training:rng_stream", None),
    ("training.rng_stream", "bornbench.cli:rng_stream", None),
]

# First call of any of these marks the end of set-up: config parsed, circuit,
# kernel and target built, and the first loss, gradient or circuit evaluation
# about to run.  Several layers are named so that the mark survives a refactor
# of any one of them; if none is left, set-up time is missing, not failed.
SETUP_MARKS = [
    "bornbench.training:circuit_probabilities",
    "bornbench.training:mmd_loss",
    "bornbench.training:mmd_loss_exact",
    "bornbench.training:mmd_gradient",
    "bornbench.mmd:circuit_probabilities",
    "bornbench.sim:run_statevector",
    "bornbench.sim:evolve_density",
]

# metric -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "sim.statevector.calls": ("count", "lower"),
    "sim.statevector.busy_s": ("s", "lower"),
    "sim.statevector.us_per_call": ("us", "lower"),
    "sim.statevector.share": ("ratio", "lower"),
    "sim.density.calls": ("count", "lower"),
    "sim.density.busy_s": ("s", "lower"),
    "sim.density.ms_per_call": ("ms", "lower"),
    "sim.density.share": ("ratio", "lower"),
    "sim.evals": ("count", "lower"),
    "sim.evals_per_step": ("count", "lower"),
    "sim.distinct_theta_ratio": ("ratio", "higher"),
    "sim.sample.calls": ("count", "lower"),
    "sim.sample.busy_s": ("s", "lower"),
    "sim.sample.shots": ("count", "lower"),
    "noise.channels.calls": ("count", "lower"),
    "noise.channels.busy_s": ("s", "lower"),
    "noise.readout.busy_s": ("s", "lower"),
    "mmd.gradient.calls": ("count", "lower"),
    "mmd.gradient.busy_s": ("s", "lower"),
    "mmd.gradient.self_s": ("s", "lower"),
    "mmd.gradient.ms_p50": ("ms", "lower"),
    "mmd.gradient.ms_p90": ("ms", "lower"),
    "mmd.gradient.share": ("ratio", "lower"),
    "mmd.loss.busy_s": ("s", "lower"),
    "mmd.kernel.busy_s": ("s", "lower"),
    "metrics.kl.calls": ("count", "lower"),
    "metrics.kl.busy_s": ("s", "lower"),
    "metrics.f1.busy_s": ("s", "lower"),
    "metrics.qbas.calls": ("count", "lower"),
    "metrics.qbas.busy_s": ("s", "lower"),
    "metrics.qbas.ms_per_call": ("ms", "lower"),
    "metrics.qbas.share": ("ratio", "lower"),
    "training.adam.busy_s": ("s", "lower"),
    "training.rng_stream.calls": ("count", "lower"),
    "training.rng_stream.busy_s": ("s", "lower"),
    "training.self_s": ("s", "lower"),
    "ansatz.build.busy_s": ("s", "lower"),
    "runio.write.calls": ("count", "lower"),
    "runio.write.busy_s": ("s", "lower"),
    "runio.write.bytes": ("B", "lower"),
    "runio.config.busy_s": ("s", "lower"),
    "cli.sweep.rows": ("count", "higher"),
    "cli.sweep.row_busy_s": ("s", "lower"),
    "cli.sweep.overlap": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _needs(metric: str) -> tuple[str, ...]:
    """The span names a metric is computed from."""
    special = {
        "sim.evals": ("sim.eval",),
        "sim.evals_per_step": ("sim.eval",),
        "sim.distinct_theta_ratio": ("sim.eval",),
        "training.self_s": ("training.train",),
        "cli.sweep.rows": ("cli.sweep.row",),
        "cli.sweep.row_busy_s": ("cli.sweep.row",),
        "cli.sweep.overlap": ("cli.sweep", "cli.sweep.row"),
        "trace.overhead_ratio": (),
    }
    return special.get(metric, (metric.rsplit(".", 1)[0],))


def missing_metrics(missing_targets) -> list[str]:
    """Metrics that cannot be computed because every hook of a span they need
    found no target.  A span that lost only some of its hooks is still
    measured; the lost hooks are reported on their own."""
    found = {name for name, target, _ in HOOKS if target not in set(missing_targets)}
    return [m for m in PER_LAYER if any(n not in found for n in _needs(m))]


def layer_metrics(spans, main_s: float, steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced process.  ``main_s`` is the traced
    duration of the CLI command, ``steps`` the training steps it ran."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    names = {s.id: s.name for s in spans}

    def top(name):  # outermost spans only, so nested same-name calls count once
        return [s for s in by_name.get(name, ()) if names.get(s.parent) != name]

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.end - s.start for s in top(name))

    def per_call(name, scale):
        n = calls(name)
        return busy(name) / n * scale if n else 0.0

    selfs = self_times(spans)

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    evals = by_name.get("sim.eval", ())
    gradient_ms = sorted((s.end - s.start) * 1e3 for s in by_name.get("mmd.gradient", ()))
    sweep_wall = busy("cli.sweep")
    out = {
        "sim.statevector.calls": calls("sim.statevector"),
        "sim.statevector.busy_s": busy("sim.statevector"),
        "sim.statevector.us_per_call": per_call("sim.statevector", 1e6),
        "sim.statevector.share": busy("sim.statevector") / main_s,
        "sim.density.calls": calls("sim.density"),
        "sim.density.busy_s": busy("sim.density"),
        "sim.density.ms_per_call": per_call("sim.density", 1e3),
        "sim.density.share": busy("sim.density") / main_s,
        "sim.evals": len(evals),
        "sim.evals_per_step": len(evals) / steps,
        "sim.distinct_theta_ratio": len({s.value for s in evals}) / len(evals) if evals else 0.0,
        "sim.sample.calls": calls("sim.sample"),
        "sim.sample.busy_s": busy("sim.sample"),
        "sim.sample.shots": sum(s.value for s in by_name.get("sim.sample", ())),
        "noise.channels.calls": calls("noise.channels"),
        "noise.channels.busy_s": busy("noise.channels"),
        "noise.readout.busy_s": busy("noise.readout"),
        "mmd.gradient.calls": calls("mmd.gradient"),
        "mmd.gradient.busy_s": busy("mmd.gradient"),
        "mmd.gradient.self_s": self_s("mmd.gradient"),
        "mmd.gradient.ms_p50": statistics.median(gradient_ms) if gradient_ms else 0.0,
        "mmd.gradient.ms_p90": _p90(gradient_ms),
        "mmd.gradient.share": busy("mmd.gradient") / main_s,
        "mmd.loss.busy_s": busy("mmd.loss"),
        "mmd.kernel.busy_s": busy("mmd.kernel"),
        "metrics.kl.calls": calls("metrics.kl"),
        "metrics.kl.busy_s": busy("metrics.kl"),
        "metrics.f1.busy_s": busy("metrics.f1"),
        "metrics.qbas.calls": calls("metrics.qbas"),
        "metrics.qbas.busy_s": busy("metrics.qbas"),
        "metrics.qbas.ms_per_call": per_call("metrics.qbas", 1e3),
        "metrics.qbas.share": busy("metrics.qbas") / main_s,
        "training.adam.busy_s": busy("training.adam"),
        "training.rng_stream.calls": calls("training.rng_stream"),
        "training.rng_stream.busy_s": busy("training.rng_stream"),
        "training.self_s": self_s("training.train"),
        "ansatz.build.busy_s": busy("ansatz.build"),
        "runio.write.calls": calls("runio.write"),
        "runio.write.busy_s": busy("runio.write"),
        "runio.write.bytes": sum(s.value for s in by_name.get("runio.write", ())),
        "runio.config.busy_s": busy("runio.config"),
        "cli.sweep.rows": calls("cli.sweep.row"),
        "cli.sweep.row_busy_s": busy("cli.sweep.row"),
        "cli.sweep.overlap": busy("cli.sweep.row") / sweep_wall if sweep_wall else 0.0,
    }
    return {k: float(v) for k, v in out.items()}


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]
