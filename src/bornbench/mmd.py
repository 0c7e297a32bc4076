"""Maximum mean discrepancy loss with a Gaussian kernel over basis states.

The kernel is K(x, y) = exp(-d(x, y) / (2 sigma)) where d is either the
squared difference of the integer basis labels (default) or the squared
Hamming distance, and sigma is treated as the kernel variance.  Set
``sigma_is_variance=False`` to treat sigma as a standard deviation instead.

The sampled loss uses the unbiased U-statistic for the model-model term; the
target distribution is exact, so the cross and target-target terms need no
estimator.  Gradients come from the parameter-shift rule: with q+- the output
distributions at theta_i +- pi/2, which ``shift_probabilities`` simulates,

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
from .sim import circuit_probabilities

# a kernel whose smallest eigenvalue is below -PSD_TOLERANCE is refused
PSD_TOLERANCE = 1e-10

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
        try:
            denom = 2.0 * self.sigma if self.sigma_is_variance else 2.0 * self.sigma**2
        except OverflowError:  # sigma**2 past the float range
            denom = math.inf
        if not 0.0 < denom < math.inf:
            raise ValueError(
                f"sigma = {self.sigma!r} gives the kernel denominator {denom!r}, "
                "which must be finite and positive"
            )
        index = np.arange(2**self.n_bits)
        if self.distance == "integer-squared":
            d = np.subtract(index[:, None], index[None, :], dtype=float) ** 2
        else:
            flips = index[:, None, None] ^ index[None, :, None]
            d = (flips >> np.arange(self.n_bits) & 1).sum(axis=-1).astype(float) ** 2
        with np.errstate(over="ignore"):  # -d / denom may round to -inf: entry 0
            d /= -denom  # in place, as d is the largest array built here
            self.matrix = np.exp(d, out=d)
        if self.matrix[0, -1] == 1.0:  # the farthest pair's entry, the smallest
            raise ValueError(
                f"sigma = {self.sigma!r} gives a kernel whose every entry is 1.0, so the MMD "
                "and its gradient are 0 for every model; take a smaller sigma"
            )
        # exp(-h^2 / (2 sigma)), h^2 the fourth power of a Euclidean distance,
        # is indefinite at large sigma, and then the MMD can go negative; the
        # Gaussian over integer labels is positive definite at every sigma
        if self.distance == "hamming-squared":
            smallest = walsh_hadamard(self.matrix[0]).min()
            if smallest < -PSD_TOLERANCE:
                raise ValueError(
                    f"sigma = {self.sigma!r} with kernel_distance = {self.distance} gives a "
                    f"kernel that is not positive semi-definite (smallest eigenvalue "
                    f"{smallest:.3g}); take a smaller sigma or integer-squared"
                )


def walsh_hadamard(row: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a length-2^n vector.  Of row 0 of a kernel
    that depends on x XOR y, as a Hamming-distance kernel does, it gives the
    kernel's eigenvalues: the kernel is a convolution on the group Z_2^n."""
    out = np.asarray(row, dtype=float)
    half = 1
    while half < len(out):
        pairs = out.reshape(-1, 2, half)
        out = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).reshape(-1)
        half *= 2
    return out


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


def shift_batch(theta) -> np.ndarray:
    """The 2P+1 angle vectors of a parameter-shift gradient: theta, then
    theta_i + pi/2 and theta_i - pi/2 for each parameter i."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError(f"need one angle vector, got shape {theta.shape}")
    index = np.arange(len(theta))
    shifted = np.tile(theta, (2 * len(theta) + 1, 1))
    shifted[1 + 2 * index, index] = theta + math.pi / 2.0
    shifted[2 + 2 * index, index] = theta - math.pi / 2.0
    return shifted


def shift_probabilities(circuit: CircuitSpec, theta, noise: NoiseModel | None = None):
    """Outcome distributions (2P+1, 2^n) of ``shift_batch(theta)``, simulated
    in one batch.  Row 0 is bit for bit ``circuit_probabilities(circuit,
    theta, noise)``, as a batch row comes out exactly as it does alone."""
    return circuit_probabilities(circuit, shift_batch(theta), noise)


def mmd_gradient(q, p: TargetDistribution, spec: KernelSpec) -> np.ndarray:
    """Parameter-shift gradient of the MMD loss from the outcome
    distributions (2P+1, 2^n) of a shift batch: the exact ones that
    ``shift_probabilities`` returns, or for the sampled gradient each row's
    histogram over its shot count, as the training loop draws them."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or len(q) % 2 == 0 or q.shape[1] != len(p.probs):
        raise ValueError(f"need the distributions of a shift batch, got shape {q.shape}")
    weight = spec.matrix @ (q[0] - p.probs)
    # a dot product per parameter: one matrix-vector product would round differently
    return np.array([row @ weight for row in q[1::2] - q[2::2]])
