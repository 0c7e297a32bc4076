"""Training loop: Adam over sampled MMD gradients, with metric evaluation,
checkpointing, and deterministic resumption.

All randomness is drawn from counter-based streams keyed on
(seed, purpose, step, ...), so a run is a pure function of its config, any
step can be recomputed in isolation, and resuming from a checkpoint at step S
reproduces the original run bit-exactly when the config differs only in
``n_steps``.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .ansatz import CircuitSpec, build_circuit, format_edge_list
from .bas import IMAGE, TargetDistribution, bas_target_distribution
from .kv import format_value
from .metrics import (
    MetricRecord,
    f1_per_state,
    kl_sampling_summary,
    qbas_aggregate,
    qbas_from_probs,
)
from .mmd import KernelSpec, mmd_gradient, mmd_loss, mmd_loss_exact, shift_probabilities
from .noise import NoiseModel
from .sim import circuit_probabilities, generators, sample_counts, sample_histogram, stream_seeds

# Stream purposes; each combines with the seed and global step index.
TAG_INIT = 0
TAG_LOSS = 1
TAG_GRAD = 2
TAG_KL = 3
TAG_F1 = 4
TAG_QBAS = 5
TAG_DEPLOY = 6

CONFIG_DIGEST_VERSION = 1
# Output version of the density-matrix path; only noisy configs hash it, so
# a change to noisy bytes leaves every noiseless digest and checkpoint alone.
DENSITY_PATH_VERSION = 3

# Steps whose sampling streams are seeded in one ``stream_seeds`` call; only
# run time depends on it, as each stream is keyed on its global step.
STREAM_BLOCK = 64


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (seed, purpose, ...) coordinate: the
    stream of ``SeedSequence((seed, *path))``, the entropy that
    ``stream_seeds`` takes for the run's sampling streams."""
    return np.random.default_rng(np.random.SeedSequence((seed, *path)))


@dataclass
class AdamState:
    """Optimizer moments; ``t`` counts completed updates."""

    t: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zero(cls, n_params: int) -> "AdamState":
        return cls(0, np.zeros(n_params), np.zeros(n_params))

    def copy(self) -> "AdamState":
        return AdamState(self.t, self.m.copy(), self.v.copy())


def adam_step(
    state: AdamState,
    grad: np.ndarray,
    theta: np.ndarray,
    alpha: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns the new state and parameters."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.m.shape or grad.shape != np.shape(theta):
        raise ValueError("gradient, moments and parameters must share a shape")
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by name
        new_theta = theta - alpha * m_hat / (np.sqrt(v_hat) + epsilon)
    if not np.all(np.isfinite(new_theta)):
        raise ValueError(f"alpha = {alpha!r} is too large: the Adam step left the float range")
    return AdamState(t, m, v), new_theta


@dataclass(frozen=True)
class TrainingConfig:
    """Everything a training run depends on.

    ``gradient_mode`` is "sampled" (fresh finite-shot histograms for the loss
    and every shifted evaluation) or "exact" (exact output distributions).
    """

    d_c: int
    n_layers: int
    n_shots_train: int = 1024
    n_steps: int = 100
    alpha: float = 0.2
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    sigma: float = 0.1
    kernel_distance: str = "integer-squared"
    sigma_is_variance: bool = True
    seed: int = 0
    n_rows: int = 2  # the image is 2x2: both are refused otherwise, and kept as config keys
    n_cols: int = 2
    kl_shots: int = 2048
    kl_repeats: int = 10
    metric_every: int = 1
    checkpoint_every: int = 10
    qbas_enabled: bool = False
    qbas_shots: int = 1024
    qbas_repeats: int = 11
    qbas_sample_size: int = 15
    qbas_resamples: int = 10000
    gradient_mode: str = "sampled"
    dc3_edges: tuple[tuple[int, int], ...] | None = None
    noise: NoiseModel | None = None
    label: str = "run"  # names the run's default directory and its sweep summary row

    def __post_init__(self) -> None:
        # commands join the label to a parent directory and may remove the result
        if self.label in ("", ".", "..") or any(s and s in self.label for s in (os.sep, os.altsep)):
            raise ValueError(f"label must name one directory, not {self.label!r}")
        if self.n_shots_train < 2:
            raise ValueError("n_shots_train must be at least 2")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        for name in ("alpha", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.kl_repeats < 2:
            raise ValueError("kl_repeats must be at least 2")
        for name in (
            "kl_shots",
            "metric_every",
            "checkpoint_every",
            "qbas_shots",
            "qbas_repeats",
            "qbas_sample_size",
            "qbas_resamples",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.gradient_mode not in ("sampled", "exact"):
            raise ValueError(f"gradient_mode must be 'sampled' or 'exact'")
        if (self.n_rows, self.n_cols) != (IMAGE.rows, IMAGE.cols):
            raise ValueError(
                f"n_rows = {self.n_rows}, n_cols = {self.n_cols}: the image is 2x2, so both must be 2"
            )
        if self.noise is not None:
            self.noise.check_register(self.n_qubits)
        if self.dc3_edges is not None:
            edges = tuple((int(u), int(v)) for u, v in self.dc3_edges)
            if len(edges) != 3:
                raise ValueError(f"dc3_edges must list exactly 3 edges, got {len(edges)}")
            object.__setattr__(self, "dc3_edges", edges)
        # The run's derived objects, built once.  They are plain attributes,
        # not fields, so kv_items, digest, == and replace see only the fields.
        kernel = KernelSpec(
            self.n_qubits,
            sigma=self.sigma,
            distance=self.kernel_distance,
            sigma_is_variance=self.sigma_is_variance,
        )
        target = bas_target_distribution(IMAGE)
        circuit = build_circuit(
            self.n_qubits,
            self.d_c,
            self.n_layers,
            chow_liu_source=target if self.dc3_edges is None else None,
            dc3_edges=self.dc3_edges,
        )
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_circuit", circuit)

    @property
    def n_qubits(self) -> int:
        return self.n_rows * self.n_cols

    def target(self) -> TargetDistribution:
        return self._target

    def kernel(self) -> KernelSpec:
        return self._kernel

    def circuit(self) -> CircuitSpec:
        return self._circuit

    def kv_items(self) -> list[tuple[str, str]]:
        """Canonical key/value form covering every field; noise is inlined."""
        items: list[tuple[str, str]] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:  # dc3_edges or noise left unset
                continue
            if f.name == "noise":
                items.extend((f"noise_{k}", v) for k, v in value.kv_items())
            elif f.name == "dc3_edges":
                items.append((f.name, format_edge_list(value)))
            else:
                items.append((f.name, format_value(value)))
        return items

    def digest(self) -> str:
        lines = [f"digest_version = {CONFIG_DIGEST_VERSION}"]
        if self.noise is not None and not self.noise.is_noiseless():
            lines.append(f"density_path_version = {DENSITY_PATH_VERSION}")
        lines.extend(f"{k} = {v}" for k, v in sorted(self.kv_items()))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class Checkpoint:
    """Resumable trainer state at one global step."""

    step: int
    theta: np.ndarray
    adam: AdamState
    seed: int
    config_digest: str


@dataclass
class RunRecord:
    """Everything produced by one (possibly resumed) training run."""

    config: TrainingConfig
    start_step: int
    theta_trajectory: np.ndarray  # theta at steps start_step .. start_step + K
    metrics: list[MetricRecord]  # loss and metrics at the scheduled steps
    checkpoints: list[Checkpoint]

    @property
    def steps(self) -> list[int]:
        return [self.start_step + i for i in range(self.theta_trajectory.shape[0])]

    @property
    def final_step(self) -> int:
        return self.start_step + self.theta_trajectory.shape[0] - 1

    @property
    def final_theta(self) -> np.ndarray:
        return self.theta_trajectory[-1]


def initial_theta(config: TrainingConfig, n_params: int) -> np.ndarray:
    """Random initialization: angles i.i.d. uniform on [0, 2 pi)."""
    rng = rng_stream(config.seed, TAG_INIT)
    return rng.uniform(0.0, 2.0 * np.pi, n_params)


def _block_seeds(config: TrainingConfig, steps, evaluated, last_step: int) -> dict:
    """Seed words of every stream that ``steps`` draw from, keyed on
    (purpose, step), from one ``stream_seeds`` call: the loss, KL, F1 and
    qBAS streams of each step that ``evaluated`` accepts, and the children
    of the gradient stream of each step before ``last_step``."""
    sampled = config.gradient_mode == "sampled"
    n_rows = 2 * config.circuit().parameter_count + 1
    keys = []  # (purpose, step, children or None for the stream itself)
    for step in steps:
        if evaluated(step):
            keys += [(TAG_LOSS, step, None)] * sampled
            keys += [(TAG_KL, step, config.kl_repeats), (TAG_F1, step, None)]
            keys += [(TAG_QBAS, step, config.qbas_repeats)] * config.qbas_enabled
        if sampled and step < last_step:
            keys.append((TAG_GRAD, step, n_rows))
    seeds = stream_seeds([(config.seed, tag, step) for tag, step, _ in keys], [n for *_, n in keys])
    return {key[:2]: words for key, words in zip(keys, seeds)}


def _evaluate_metrics(config: TrainingConfig, probs: np.ndarray, step: int, seeds: dict, pool):
    """The loss and every metric at one evaluated step, drawn from the
    streams of ``seeds`` (``_block_seeds``); qBAS, when enabled, is queued on
    ``pool`` and its scores returned as an iterator, the record's qBAS
    fields unset."""
    target, kernel = config.target(), config.kernel()
    if config.gradient_mode == "exact":
        loss = mmd_loss_exact(probs, target, kernel)
    else:
        hist = sample_histogram(probs, config.n_shots_train, *generators(seeds[TAG_LOSS, step]))
        loss = mmd_loss(hist, target, kernel)
    kl = kl_sampling_summary(target, probs, generators(seeds[TAG_KL, step]), config.kl_shots)
    f1_hist = sample_histogram(probs, config.kl_shots, *generators(seeds[TAG_F1, step]))
    f1 = f1_per_state(target, f1_hist)
    record = MetricRecord(step, loss, kl.mean, kl.std, f1, kl.smoothed)
    if pool is None:
        return record, None
    scores = qbas_from_probs(
        probs,
        target.support,
        generators(seeds[TAG_QBAS, step]),
        pool,
        shots=config.qbas_shots,
        sample_size=config.qbas_sample_size,
        resamples=config.qbas_resamples,
    )
    return record, scores


def train(config: TrainingConfig, checkpoint: Checkpoint | None = None) -> RunRecord:
    """Train for ``config.n_steps`` steps: from ``initial_theta``, or from a
    checkpoint's parameters, optimizer moments and global step.

    Global step indices are preserved, so a run resumed with a config that
    differs only in ``n_steps`` is bit-identical to the original; changing
    anything else (for example enabling noise) warm-starts from the stored
    state.
    """
    circuit, kernel, target = config.circuit(), config.kernel(), config.target()
    digest = config.digest()
    n_params = circuit.parameter_count
    if checkpoint is None:
        theta, adam, start_step = initial_theta(config, n_params), AdamState.zero(n_params), 0
    elif checkpoint.theta.shape != (n_params,):
        n = checkpoint.theta.shape[0]
        raise ValueError(f"checkpoint has {n} parameters, circuit needs {n_params}")
    else:
        theta, adam, start_step = checkpoint.theta.copy(), checkpoint.adam.copy(), checkpoint.step
    last_step = start_step + config.n_steps

    trajectory = [theta.copy()]
    metrics: list[MetricRecord] = []
    checkpoints: list[Checkpoint] = []
    # qBAS scoring runs on one thread pool for the whole run, overlapped with
    # training (Generator.multinomial releases the GIL)
    pool = None
    if config.qbas_enabled:
        # imported here, so that importing the package or the command line
        # loads no concurrent.futures (and logging)
        from concurrent.futures import ThreadPoolExecutor

        # sched_getaffinity is Linux-only; cpu_count may be None
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        pool = ThreadPoolExecutor(cpus or 1)
    pending = []
    sampled = config.gradient_mode == "sampled"

    def evaluated(step: int) -> bool:
        return step in (start_step, last_step) or step % config.metric_every == 0

    try:
        for step in range(start_step, last_step + 1):
            boundary = step in (start_step, last_step)
            if step < last_step:  # row 0 of the gradient's batch is theta's distribution
                q = shift_probabilities(circuit, theta, config.noise)
                probs = q[0]
            else:
                probs = circuit_probabilities(circuit, theta, config.noise)
            if (step - start_step) % STREAM_BLOCK == 0:
                block = range(step, min(step + STREAM_BLOCK, last_step + 1))
                seeds = _block_seeds(config, block, evaluated, last_step)
            if evaluated(step):
                record, scores = _evaluate_metrics(config, probs, step, seeds, pool)
                metrics.append(record)
                if scores is not None:
                    pending.append((record, scores))
                # a step's qBAS scores are read back two metric steps later,
                # and the rest at the last step
                while len(pending) > 2 or (pending and step == last_step):
                    done, scores = pending.pop(0)
                    result = qbas_aggregate(scores)
                    done.qbas_mean, done.qbas_var = result.mean, result.variance
            if boundary or step % config.checkpoint_every == 0:
                checkpoints.append(
                    Checkpoint(step, theta.copy(), adam.copy(), config.seed, digest)
                )
            if step == last_step:
                break
            if sampled:  # a fresh histogram of each row, over its shot count
                n = config.n_shots_train
                q = sample_counts(q, n, generators(seeds[TAG_GRAD, step])) / n
            grad = mmd_gradient(q, target, kernel)
            adam, theta = adam_step(
                adam, grad, theta, config.alpha, config.beta1, config.beta2, config.epsilon
            )
            trajectory.append(theta.copy())
    finally:
        if pool is not None:  # on an error, queued scoring is dropped
            pool.shutdown(cancel_futures=True)

    return RunRecord(config, start_step, np.asarray(trajectory), metrics, checkpoints)
