"""Maximum mean discrepancy loss with a Gaussian kernel over basis states.

The kernel is K(x, y) = exp(-d(x, y) / (2 sigma)) where d is either the
squared difference of the integer basis labels (default) or the squared
Hamming distance, and sigma is treated as the kernel variance.  Set
``sigma_is_variance=False`` to treat sigma as a standard deviation instead.

The sampled loss uses the unbiased U-statistic for the model-model term; the
target distribution is exact, so the cross and target-target terms need no
estimator.  Gradients come from the parameter-shift rule: with q+- the output
distributions at theta_i +- pi/2,

    grad_i = <K>_{q+,q} - <K>_{q-,q} - <K>_{q+,p} + <K>_{q-,p}

which equals the exact derivative of (q - p)^T K (q - p) because
dq/dtheta_i = (q+ - q-) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ansatz import CircuitSpec
from .bas import TargetDistribution
from .noise import NoiseModel
from .sim import circuit_probabilities, sample_counts

MAX_KERNEL_BITS = 12

DISTANCE_KINDS = ("integer-squared", "hamming-squared")


@dataclass(eq=False)
class KernelSpec:
    """Gaussian kernel over n-bit basis states with a precomputed matrix."""

    n_bits: int
    sigma: float = 0.1
    distance: str = "integer-squared"
    sigma_is_variance: bool = True
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")
        if self.distance not in DISTANCE_KINDS:
            raise ValueError(f"unknown distance {self.distance!r}")
        if not 1 <= self.n_bits <= MAX_KERNEL_BITS:
            raise ValueError(
                f"the MMD kernel is capped at {MAX_KERNEL_BITS} bits, got {self.n_bits}"
            )
        try:
            denom = 2.0 * self.sigma if self.sigma_is_variance else 2.0 * self.sigma**2
        except OverflowError:  # sigma**2 past the float range
            denom = math.inf
        if not 0.0 < denom < math.inf:
            raise ValueError(
                f"sigma = {self.sigma!r} gives the kernel denominator {denom!r}, "
                "which must be finite and positive"
            )
        index = np.arange(2**self.n_bits, dtype=np.uint16)  # n_bits <= 12
        if self.distance == "integer-squared":
            d = np.subtract(index[:, None], index[None, :], dtype=float) ** 2
        else:
            flips = index[:, None] ^ index[None, :]
            hamming = np.zeros_like(flips)
            for bit in range(self.n_bits):  # one bit at a time: no (2^n, 2^n, n) array
                hamming += (flips >> bit) & 1
            d = hamming.astype(float) ** 2
        with np.errstate(over="ignore"):  # -d / denom may round to -inf: entry 0
            d /= -denom  # in place, as d is the largest array built here
            self.matrix = np.exp(d, out=d)


def mmd_loss(counts, p: TargetDistribution, spec: KernelSpec) -> float:
    """Squared MMD between a sampled model distribution, given as a 1-d
    counts array over the basis states, and the exact target.

    The sample-sample expectation is the U-statistic over distinct sample
    pairs, so the estimate is unbiased.
    """
    n = counts.sum()
    if n < 2:
        raise ValueError("the unbiased estimator needs at least 2 shots")
    c = counts.astype(float)
    kc = spec.matrix @ c
    qq = (c @ kc - n) / (n * (n - 1))  # kernel diagonal is exactly 1
    qp = (c / n) @ (spec.matrix @ p.probs)
    pp = p.probs @ spec.matrix @ p.probs
    return float(qq - 2.0 * qp + pp)


def mmd_loss_exact(q_probs, p: TargetDistribution, spec: KernelSpec) -> float:
    """Squared MMD between two exact distributions: (q - p)^T K (q - p)."""
    diff = np.asarray(q_probs, dtype=float) - p.probs
    return float(diff @ spec.matrix @ diff)


def mmd_gradient(
    circuit: CircuitSpec,
    theta,
    p: TargetDistribution,
    spec: KernelSpec,
    mode: str = "exact",
    n_shots: int | None = None,
    rng: np.random.Generator | None = None,
    noise: NoiseModel | None = None,
) -> np.ndarray:
    """Parameter-shift gradient of the MMD loss.

    All 2P+1 circuits (theta, then theta_i + pi/2 and theta_i - pi/2 for each
    parameter i) are simulated in one batch.  In ``sampled`` mode each of
    their distributions is estimated from a fresh independent ``n_shots``
    histogram, evaluation k drawing from the k-th generator spawned off
    ``rng``.  ``exact`` mode uses exact output distributions throughout.
    """
    theta = np.asarray(theta, dtype=float)
    n_params = circuit.parameter_count
    sampled = mode == "sampled"
    if mode not in ("sampled", "exact"):
        raise ValueError(f"unknown gradient mode {mode!r}")
    if sampled and (n_shots is None or rng is None):
        raise ValueError("sampled mode needs n_shots and rng")
    if theta.shape != (n_params,):
        raise ValueError(f"circuit has {n_params} parameters, got {theta.shape}")

    index = np.arange(n_params)
    shifted = np.tile(theta, (2 * n_params + 1, 1))
    shifted[1 + 2 * index, index] = theta + math.pi / 2.0
    shifted[2 + 2 * index, index] = theta - math.pi / 2.0
    q = circuit_probabilities(circuit, shifted, noise)
    if sampled:
        q = sample_counts(q, n_shots, rng.spawn(len(q))) / n_shots
    weight = spec.matrix @ (q[0] - p.probs)
    # a dot product per parameter: one matrix-vector product would round differently
    return np.array([(plus - minus) @ weight for plus, minus in zip(q[1::2], q[2::2])])
