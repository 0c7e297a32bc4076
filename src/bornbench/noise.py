"""Configurable noise channels emulating hardware degradation.

A noise model places a single-qubit depolarizing channel (probability ``p1``)
after every rotation, a two-qubit depolarizing channel (``p2``) after every
CNOT, optional per-qubit amplitude damping of strength ``t_damp`` after each
entangler sub-covering (one unit of two-qubit gate time), and a per-qubit
readout confusion matrix on the final outcome probabilities.

Depolarizing probability convention: ``p`` is the probability of replacing
the state on the channel support with the maximally mixed state, so the Kraus
set is sqrt(1 - p*(d^2-1)/d^2) * I plus sqrt(p/d^2) * P over the nontrivial
Pauli products P.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import get_type_hints

import numpy as np

from .kv import format_value, parse_kv_file, parse_value

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = np.stack((_I, _X, _Y, _Z))


def broadcast_kron(a, b) -> np.ndarray:
    """Kronecker products of the matrices on the last two axes of ``a`` and
    ``b``, the leading axes broadcast; each entry is the one product that
    ``np.kron`` takes for it."""
    a, b = np.asarray(a), np.asarray(b)
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (rows, cols))


def depolarizing_kraus(p: float, n_targets: int) -> list[np.ndarray]:
    """Kraus set of the depolarizing channel on 1 or 2 qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    if n_targets not in (1, 2):
        raise ValueError("depolarizing channel supports 1 or 2 targets")
    d = 2**n_targets
    paulis = _PAULIS
    if n_targets == 2:
        paulis = broadcast_kron(_PAULIS[:, None], _PAULIS).reshape(16, 4, 4)
    ops = [np.sqrt(1.0 - p * (d * d - 1) / (d * d)) * paulis[0]]
    ops.extend(np.sqrt(p / (d * d)) * pauli for pauli in paulis[1:])
    return ops


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    """Kraus set relaxing |1> toward |0> with probability ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping probability {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


@lru_cache(maxsize=256)
def _axis_orders(ndim: int, axis: int) -> tuple:
    """``contract_axis``' transpose order (the gate axis first), inverse."""
    order = [1 + axis, 0] + [a for a in range(1, ndim) if a != 1 + axis]
    return tuple(order), tuple(np.argsort(order).tolist())


def contract_axis(t: np.ndarray, axis: int, m: np.ndarray) -> np.ndarray:
    """Contract the 2x2 ``m`` over qubit axis ``axis`` of each row of ``t``
    (B, 2, ..., 2), outcome distributions under a readout confusion matrix
    (the simulators keep their own layouts): one (2 x B*rest) product, whose
    entries are each the 2-term dot product of a lone row."""
    order, inverse = _axis_orders(t.ndim, axis)
    t = t.transpose(order)
    return (m @ t.reshape(2, -1)).reshape(t.shape).transpose(inverse)


def apply_readout(probs: np.ndarray, confusion) -> np.ndarray:
    """Apply per-qubit confusion matrices to an outcome distribution (2^n,)
    or to each row of a batch (B, 2^n).

    ``confusion[k][true_bit, reported_bit]`` must be row-stochastic.  Qubit 0
    is the most significant bit of the outcome index.
    """
    probs = np.asarray(probs, dtype=float)
    n = len(confusion)
    if probs.ndim not in (1, 2) or probs.shape[-1] != 2**n:
        raise ValueError(f"expected {2**n} probabilities for {n} confusion matrices")
    mats = []
    for k, matrix in enumerate(confusion):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (2, 2) or np.any(m < 0.0):
            raise ValueError(f"confusion matrix for qubit {k} must be 2x2 nonnegative")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError(f"confusion matrix rows for qubit {k} must sum to 1")
        mats.append(m)
    out = probs.reshape((-1,) + (2,) * n)
    for k, m in enumerate(mats):
        out = contract_axis(out, k, m.T)
    return out.reshape(probs.shape)


@dataclass(frozen=True)
class NoiseModel:
    """Channel strengths; all default to zero (noiseless)."""

    p1: float = 0.0
    p2: float = 0.0
    readout_flip_all: float = 0.0
    readout_flip: dict[int, float] = field(default_factory=dict)
    t_damp: float = 0.0

    def __post_init__(self) -> None:
        for qubit in self.readout_flip:
            if qubit < 0:
                raise ValueError(f"readout_flip_q{qubit}: negative qubit index")
        for key, value in self._strengths().items():
            if not 0.0 <= float(value) <= 1.0:
                raise ValueError(f"{key} = {float(value)} outside [0, 1]")

    def _strengths(self) -> dict[str, float]:
        """Every channel strength by its profile key, per-qubit flips last."""
        out = {name: getattr(self, name) for name in _STRENGTH_FIELDS}
        out.update((f"readout_flip_q{q}", self.readout_flip[q]) for q in sorted(self.readout_flip))
        return out

    def is_noiseless(self) -> bool:
        return all(value == 0.0 for value in self._strengths().values())

    def check_register(self, n_qubits: int) -> None:
        """Reject a per-qubit readout flip on a qubit the register lacks."""
        for qubit in sorted(self.readout_flip):
            if qubit >= n_qubits:
                raise ValueError(
                    f"readout_flip_q{qubit}: no qubit {qubit} in a {n_qubits}-qubit register"
                )

    def confusion_matrices(self, n_qubits: int) -> list[np.ndarray] | None:
        """Per-qubit confusion matrices, or None when readout is ideal."""
        if self.readout_flip_all == 0.0 and not any(self.readout_flip.values()):
            return None
        flips = (self.readout_flip.get(q, self.readout_flip_all) for q in range(n_qubits))
        return [np.array([[1.0 - f, f], [f, 1.0 - f]]) for f in flips]

    def kv_items(self) -> list[tuple[str, str]]:
        """Canonical key/value form (used for profiles, echoes and digests)."""
        return [(key, format_value(value)) for key, value in self._strengths().items()]


# the float strengths; per-qubit readout flips have their own keys
_STRENGTH_FIELDS = [name for name, kind in get_type_hints(NoiseModel).items() if kind is float]


def noise_from_items(items) -> NoiseModel:
    """Build a NoiseModel from string key/value pairs; unknown keys are errors."""
    kwargs: dict = {"readout_flip": {}}
    for key, text in dict(items).items():
        if key in _STRENGTH_FIELDS:
            kwargs[key] = parse_value(key, text, float)
        elif key.startswith("readout_flip_q"):
            qubit = parse_value(key, key[len("readout_flip_q"):], int)
            kwargs["readout_flip"][qubit] = parse_value(key, text, float)
        else:
            raise ValueError(f"unknown noise key {key!r}")
    return NoiseModel(**kwargs)


def load_noise(path) -> NoiseModel:
    """Read a noise profile file; an empty profile is noiseless."""
    return noise_from_items(parse_kv_file(path))
