"""Training loop: Adam over sampled MMD gradients, with metric evaluation,
checkpointing, and deterministic resumption.

All randomness is drawn from counter-based streams keyed on
(seed, purpose, step, ...), so a run is a pure function of its config, any
step can be recomputed in isolation, and resuming from a checkpoint at step S
reproduces the original run bit-exactly when the config is unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .ansatz import CircuitSpec, build_circuit, format_edge_list
from .bas import ImageShape, TargetDistribution, bas_target_distribution, enumerate_bas
from .kv import format_value
from .metrics import MetricRecord, f1_per_state, kl_sampling_summary, qbas_from_probs
from .mmd import KernelSpec, mmd_loss, mmd_loss_exact, mmd_gradient
from .noise import NoiseModel
from .sim import circuit_probabilities, sample_histogram

# Stream purposes; each combines with the seed and global step index.
TAG_INIT = 0
TAG_LOSS = 1
TAG_GRAD = 2
TAG_KL = 3
TAG_F1 = 4
TAG_QBAS = 5
TAG_DEPLOY = 6

CHECKPOINT_VERSION = 1
CONFIG_DIGEST_VERSION = 1
# Output version of the density-matrix path; only noisy configs hash it, so
# a change to noisy bytes leaves every noiseless digest and checkpoint alone.
DENSITY_PATH_VERSION = 2


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (seed, purpose, ...) coordinate."""
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
    n_rows: int = 2
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

    def __post_init__(self) -> None:
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
        ImageShape(self.n_rows, self.n_cols)  # validates register size
        if self.noise is not None:
            self.noise.check_register(self.n_qubits)
        if self.dc3_edges is not None:
            edges = tuple((int(u), int(v)) for u, v in self.dc3_edges)
            if len(edges) != 3:
                raise ValueError(f"dc3_edges must list exactly 3 edges, got {len(edges)}")
            object.__setattr__(self, "dc3_edges", edges)
        # The run's derived objects, built once.  They are plain attributes,
        # not fields, so kv_items, digest, == and replace see only the fields.
        # The kernel goes first: it caps the register before the target's
        # 2^n vector is allocated.
        kernel = KernelSpec(
            self.n_qubits,
            sigma=self.sigma,
            distance=self.kernel_distance,
            sigma_is_variance=self.sigma_is_variance,
        )
        target = bas_target_distribution(self.shape)
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

    @property
    def shape(self) -> ImageShape:
        return ImageShape(self.n_rows, self.n_cols)

    def target(self) -> TargetDistribution:
        return self._target

    def bas_states(self) -> list[int]:
        return enumerate_bas(self.shape)

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


@dataclass(frozen=True)
class RunConfig(TrainingConfig):
    """Training config plus presentation fields for the experiment harness."""

    label: str = "run"


@dataclass
class Checkpoint:
    """Resumable trainer state at one global step."""

    step: int
    theta: np.ndarray
    adam: AdamState
    seed: int
    config_digest: str


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "step": checkpoint.step,
        "theta": checkpoint.theta.tolist(),
        "adam_t": checkpoint.adam.t,
        "adam_m": checkpoint.adam.m.tolist(),
        "adam_v": checkpoint.adam.v.tolist(),
        "seed": checkpoint.seed,
        "config_digest": checkpoint.config_digest,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path) as handle:
        payload = json.load(handle)
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    adam = AdamState(
        int(payload["adam_t"]),
        np.asarray(payload["adam_m"], dtype=float),
        np.asarray(payload["adam_v"], dtype=float),
    )
    return Checkpoint(
        int(payload["step"]),
        np.asarray(payload["theta"], dtype=float),
        adam,
        int(payload["seed"]),
        str(payload["config_digest"]),
    )


@dataclass
class RunRecord:
    """Everything produced by one (possibly resumed) training run."""

    config: TrainingConfig
    start_step: int
    theta_trajectory: np.ndarray  # theta at steps start_step .. start_step + K
    losses: dict[int, float]  # step -> loss at the scheduled steps
    metrics: list[MetricRecord]
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


def _evaluate_metrics(
    config: TrainingConfig,
    probs: np.ndarray,
    step: int,
    target: TargetDistribution,
    bas_states: list[int],
) -> MetricRecord:
    kl = kl_sampling_summary(
        target,
        probs,
        rng_stream(config.seed, TAG_KL, step),
        n_repeats=config.kl_repeats,
        n_shots=config.kl_shots,
    )
    f1_hist = sample_histogram(probs, config.kl_shots, rng_stream(config.seed, TAG_F1, step))
    f1 = f1_per_state(target, f1_hist)
    record = MetricRecord(step, kl.mean, kl.std, f1, kl.smoothed)
    if config.qbas_enabled:
        qbas = qbas_from_probs(
            probs,
            bas_states,
            rng_stream(config.seed, TAG_QBAS, step),
            shots=config.qbas_shots,
            repeats=config.qbas_repeats,
            sample_size=config.qbas_sample_size,
            resamples=config.qbas_resamples,
        )
        record.qbas_mean = qbas.mean
        record.qbas_var = qbas.variance
    return record


def _loss_at(
    config: TrainingConfig,
    kernel: KernelSpec,
    target: TargetDistribution,
    probs: np.ndarray,
    step: int,
) -> float:
    if config.gradient_mode == "exact":
        return mmd_loss_exact(probs, target, kernel)
    hist = sample_histogram(
        probs, config.n_shots_train, rng_stream(config.seed, TAG_LOSS, step)
    )
    return mmd_loss(hist, target, kernel)


def _run(
    config: TrainingConfig,
    theta: np.ndarray,
    adam: AdamState,
    start_step: int,
    n_steps: int,
) -> RunRecord:
    circuit = config.circuit()
    kernel = config.kernel()
    target = config.target()
    bas_states = config.bas_states()
    digest = config.digest()
    last_step = start_step + n_steps

    trajectory = [theta.copy()]
    losses: dict[int, float] = {}
    metrics: list[MetricRecord] = []
    checkpoints: list[Checkpoint] = []
    for step in range(start_step, last_step + 1):
        boundary = step in (start_step, last_step)
        if boundary or step % config.metric_every == 0:
            probs = circuit_probabilities(circuit, theta, config.noise)
            losses[step] = _loss_at(config, kernel, target, probs, step)
            metrics.append(_evaluate_metrics(config, probs, step, target, bas_states))
        if boundary or step % config.checkpoint_every == 0:
            checkpoints.append(
                Checkpoint(step, theta.copy(), adam.copy(), config.seed, digest)
            )
        if step == last_step:
            break
        grad = mmd_gradient(
            circuit,
            theta,
            target,
            kernel,
            mode=config.gradient_mode,
            n_shots=config.n_shots_train,
            rng=rng_stream(config.seed, TAG_GRAD, step),
            noise=config.noise,
        )
        adam, theta = adam_step(
            adam, grad, theta, config.alpha, config.beta1, config.beta2, config.epsilon
        )
        trajectory.append(theta.copy())

    return RunRecord(
        config, start_step, np.asarray(trajectory), losses, metrics, checkpoints
    )


def train(config: TrainingConfig) -> RunRecord:
    """Train from a fresh random initialization for ``config.n_steps`` steps."""
    n_params = config.circuit().parameter_count
    theta = initial_theta(config, n_params)
    return _run(config, theta, AdamState.zero(n_params), 0, config.n_steps)


def resume(config: TrainingConfig, checkpoint: Checkpoint, n_steps: int) -> RunRecord:
    """Continue training from a checkpoint for ``n_steps`` further steps.

    Global step indices are preserved, so with an unchanged config the
    continuation is bit-identical to the original run; changing the config
    (for example enabling noise) warm-starts from the stored parameters and
    optimizer moments.
    """
    n_params = config.circuit().parameter_count
    if checkpoint.theta.shape != (n_params,):
        raise ValueError(
            f"checkpoint has {checkpoint.theta.shape[0]} parameters, "
            f"circuit needs {n_params}"
        )
    return _run(
        config, checkpoint.theta.copy(), checkpoint.adam.copy(), checkpoint.step, n_steps
    )
