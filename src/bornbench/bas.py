"""Bars-and-stripes image sets and their uniform target distribution.

Pixels are indexed row-major: pixel (r, c) of an R x C image sits on register
qubit r*C + c, and qubit 0 is the most significant bit of a basis index.
Black pixels map to |0>, white pixels to |1>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np


@dataclass(frozen=True)
class ImageShape:
    """Dimensions of a binary image mapped onto a qubit register."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("image must have at least one row and one column")

    @property
    def n_bits(self) -> int:
        return self.rows * self.cols


# the image bornbench trains on: 2x2 pixels, a 4-qubit register
IMAGE = ImageShape(2, 2)


@dataclass(frozen=True, eq=False)
class TargetDistribution:
    """Exact distribution over 2^n basis states, stored as a dense vector."""

    n_bits: int
    probs: np.ndarray
    # basis indices carrying nonzero probability
    support: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (2**self.n_bits,):
            raise ValueError(f"need {2**self.n_bits} probabilities, got shape {p.shape}")
        if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-10:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        support = np.flatnonzero(p > 0.0)
        support.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "support", support)


def bitstring(index: int, n_bits: int) -> str:
    """n-bit string of a basis index, qubit 0 first."""
    if not 0 <= index < 2**n_bits:
        raise ValueError(f"basis index {index} out of range for {n_bits} bits")
    return format(index, f"0{n_bits}b")


def enumerate_bas(shape: ImageShape) -> list[int]:
    """Basis indices of all images whose rows are constant (stripes) or whose
    columns are constant (bars), sorted ascending.

    The all-black and all-white images belong to both families and are counted
    once, giving 2^rows + 2^cols - 2 states.
    """
    n, m, nb = shape.rows, shape.cols, shape.n_bits
    rows = [sum(1 << (nb - 1 - (r * m + c)) for c in range(m)) for r in range(n)]
    cols = [sum(1 << (nb - 1 - (r * m + c)) for r in range(n)) for c in range(m)]
    states: set[int] = set()
    for lines in (rows, cols):  # stripes fill a subset of rows, bars of columns
        for filled in product((0, 1), repeat=len(lines)):
            states.add(sum(f * line for f, line in zip(filled, lines)))
    return sorted(states)


def bas_target_distribution(shape: ImageShape) -> TargetDistribution:
    """Uniform distribution over the bars-and-stripes states of ``shape``."""
    states = enumerate_bas(shape)
    probs = np.zeros(2**shape.n_bits)
    probs[states] = 1.0 / len(states)
    return TargetDistribution(shape.n_bits, probs)
