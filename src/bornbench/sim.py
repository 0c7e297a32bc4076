"""Exact statevector and density-matrix simulation of Rx/Rz/CNOT circuits.

Conventions: qubit 0 is the most significant bit of a basis index,
Rx(t) = exp(-i t X / 2) and Rz(t) = exp(-i t Z / 2), so shifting any angle by
pi/2 gives the exact parameter-shift derivative of outcome probabilities.
All operations are pure; randomness enters only through explicit generators.

Every simulator accepts one angle vector of shape (P,) or a batch of shape
(B, P) and runs each gate once over the whole batch.  A batch row goes through
exactly the floating-point operations it would go through alone, so batched
and row-by-row results are identical to the last bit.

Both simulators share one walk over the circuit (``_walk``), which hands
each rotation and each entangler sub-covering to the path's own step.  A
statevector is a batch of n-axis tensors: a rotation contracts its qubit's
axis with u by one BLAS matmul per batch row, and the CNOTs of a
sub-covering act on disjoint qubits and only permute entries, so they become
one cached gather index.

A density matrix is a batch of 2n-axis tensors, ket axes then bra axes, and
each gate is one superoperator contraction (``_superoperators``) on its
qubits' ket and bra axes, with its noise channel fused in:

- a rotation u on qubit q: the per-row 4x4 ``D1 @ kron(u, u.conj())`` on axes
  [q, n+q], where D1 = sum K (x) K.conj() over the 1-qubit depolarizing set;
- a CNOT edge (a, b): one 16x16 matrix on [a, b, n+a, n+b], the CNOT on both
  sides, then the 2-qubit depolarizing channel, then damping of a and b;
- a qubit no edge of the sub-covering touches: the 4x4 damping matrix.

Channels on disjoint qubits commute, so this is the gate-by-gate order
(gate, its channel, damping after each sub-covering) up to rounding: entries
stay within 1e-12 of a walk that applies every gate and Kraus operator by
its own matmuls (at most 2.6e-15 measured, strengths 0 to 1).  That is why a
noisy config's digest carries a ``density_path_version`` line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ansatz import CircuitSpec
from .noise import (
    NoiseModel,
    amplitude_damping_kraus,
    apply_readout,
    contract_axes,
    depolarizing_kraus,
)

MAX_STATEVECTOR_QUBITS = 24
MAX_DENSITY_QUBITS = 10
# circuit_probabilities simulates at most this many bytes of states at once,
# which bounds memory for wide registers and long batches
MAX_BATCH_BYTES = 2**25


@dataclass(eq=False)
class StateVector:
    """Amplitudes of one state, shape (2^n,), or of a batch, shape (B, 2^n)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim not in (1, 2) or amps.shape[-1] != 2**self.n_qubits:
            raise ValueError(f"expected {2**self.n_qubits} amplitudes, got {amps.shape}")
        self.amplitudes = amps


@dataclass(eq=False)
class DensityMatrix:
    """One density matrix, shape (2^n, 2^n), or a batch, shape (B, 2^n, 2^n)."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        dim = 2**self.n_qubits
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim not in (2, 3) or entries.shape[-2:] != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrices, got {entries.shape}")
        self.entries = entries


@dataclass(eq=False)
class Histogram:
    """Counts of measured basis states from a fixed number of shots."""

    counts: np.ndarray
    n_shots: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("counts must be a 1-d nonnegative array")
        if int(counts.sum()) != self.n_shots:
            raise ValueError("counts must sum to n_shots")
        self.counts = counts

    def empirical(self) -> np.ndarray:
        return self.counts / self.n_shots


def _rotations(gate: str, angles: np.ndarray) -> np.ndarray:
    """Stack of Rx or Rz matrices, shape (B, 2, 2), for a column of angles.

    Rx entries come from the scalar ``math.cos`` and ``math.sin``: numpy's
    vectorised versions may differ from them in the last bit on some
    platforms.
    """
    u = np.zeros((len(angles), 2, 2), dtype=complex)
    if gate == "rx":
        half = (angles / 2.0).tolist()
        c = [math.cos(a) for a in half]
        s = [-math.sin(a) for a in half]
        u[:, 0, 0] = u[:, 1, 1] = c
        u.imag[:, 0, 1] = u.imag[:, 1, 0] = s
    else:
        phase = np.exp(-0.5j * angles)
        u[:, 0, 0] = phase
        u[:, 1, 1] = phase.conj()
    return u


@lru_cache(maxsize=64)
def _cnot_permutation(n_qubits: int, edges: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Gather index of a CNOT sequence: the state after the CNOTs is
    ``state[..., index]`` over flat basis indices."""
    basis = np.arange(2**n_qubits)
    index = basis
    for control, target in edges:
        control_bit = (basis >> (n_qubits - 1 - control)) & 1
        index = index[basis ^ (control_bit << (n_qubits - 1 - target))]
    index.flags.writeable = False
    return index


def _check_theta(circuit: CircuitSpec, theta) -> np.ndarray:
    """Angles as a (B, P) batch; ``theta`` is one vector (P,) or a batch."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != circuit.parameter_count:
        raise ValueError(
            f"circuit has {circuit.parameter_count} parameters, got {theta.shape}"
        )
    return theta.reshape(-1, circuit.parameter_count)


def exact_probabilities(state: StateVector | DensityMatrix) -> np.ndarray:
    """Outcome distribution over the 2^n basis states, one row per batch row."""
    if isinstance(state, StateVector):
        probs = np.abs(state.amplitudes) ** 2
    else:
        probs = np.diagonal(state.entries, axis1=-2, axis2=-1).real.copy()
        if probs.min() < -1e-8:
            raise ValueError("density matrix has significantly negative populations")
        np.clip(probs, 0.0, None, out=probs)
    return probs / probs.sum(axis=-1, keepdims=True)


def sample_counts(probs, n_shots: int, streams) -> np.ndarray:
    """Draw ``n_shots`` basis-state samples from each row of ``probs``
    (shape (B, 2^n)), row k from generator ``streams[k]``; counts (B, 2^n)."""
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or len(p) != len(streams):
        raise ValueError(f"need one generator per row, got {len(streams)} for {p.shape}")
    totals = p.sum(axis=-1, keepdims=True)
    if np.any(p < 0.0) or not np.all((totals > 0.0) & np.isfinite(totals)):
        raise ValueError("probabilities must be nonnegative with positive sum")
    p = p / totals
    return np.array(
        [stream.multinomial(n_shots, row) for stream, row in zip(streams, p)],
        dtype=np.int64,
    )


def sample_histogram(probs, n_shots: int, rng: np.random.Generator) -> Histogram:
    """Draw ``n_shots`` i.i.d. basis-state samples; deterministic given ``rng``."""
    counts = sample_counts(np.asarray(probs, dtype=float)[None], n_shots, [rng])
    return Histogram(counts[0], n_shots)


# ---------------------------------------------------------------------------
# The circuit walk and the density path's superoperators

_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _superoperator(kraus) -> np.ndarray:
    """Sum of K (x) K.conj() over a Kraus set: the channel as one matrix on
    the ket index then the bra index of its qubits."""
    return sum(np.kron(k, k.conj()) for k in kraus)


@lru_cache(maxsize=32)
def _superoperators(p1: float, p2: float, t_damp: float) -> tuple:
    """The density path's fixed matrices at one noise strength: the 1-qubit
    depolarizing channel (4x4); a CNOT edge followed by the 2-qubit
    depolarizing channel and the damping of both qubits (16x16); and the
    damping of one qubit (4x4).  A zero strength gives an identity."""
    damp = amplitude_damping_kraus(t_damp)
    damp_pair = _superoperator([np.kron(a, b) for a in damp for b in damp])
    edge = damp_pair @ _superoperator(depolarizing_kraus(p2, 2)) @ np.kron(_CNOT, _CNOT)
    mats = (_superoperator(depolarizing_kraus(p1, 1)), edge, _superoperator(damp))
    for m in mats:
        m.flags.writeable = False
    return mats


def _walk(circuit: CircuitSpec, theta, n_axes: int, rotate, entangle) -> np.ndarray:
    """Evolve |0...0> on ``n_axes`` qubit axes through the circuit, where
    ``rotate(state, qubit, u)`` applies a stack u (B, 2, 2) of rotations and
    ``entangle(state, edges)`` the CNOTs of one sub-covering.  Returns a
    (B, 2, ..., 2) batch."""
    thetas = _check_theta(circuit, theta)
    state = np.zeros((len(thetas),) + (2,) * n_axes, dtype=complex)
    state[(slice(None),) + (0,) * n_axes] = 1.0
    covering: list[tuple[int, int]] = []  # CNOTs of the current sub-covering
    for op, *args in circuit.instructions():
        if op == "cnot":
            covering.append((args[0], args[1]))
        elif op == "tick":
            state = entangle(state, tuple(covering))
            covering = []
        else:
            qubit, slot = args
            state = rotate(state, qubit, _rotations(op, thetas[:, slot]))
    return state


def run_statevector(circuit: CircuitSpec, theta) -> StateVector:
    """Evolve |0...0> through the circuit at rotation angles ``theta``; a
    batch of angle vectors gives a batch of states."""
    n = circuit.n_qubits
    if n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"statevector simulation capped at {MAX_STATEVECTOR_QUBITS} qubits")

    def entangle(psi, edges):
        index = _cnot_permutation(n, edges)
        return psi.reshape(len(psi), -1)[:, index].reshape(psi.shape)

    psi = _walk(circuit, theta, n, lambda psi, q, u: contract_axes(psi, [q], u), entangle)
    return StateVector(n, psi.reshape(np.shape(theta)[:-1] + (2**n,)))


def evolve_density(
    circuit: CircuitSpec, theta, noise: NoiseModel | None = None
) -> DensityMatrix:
    """Density-matrix evolution; each gate is followed by its noise channel
    and every entangler sub-covering by per-qubit amplitude damping.  A batch
    of angle vectors gives a batch of density matrices."""
    n = circuit.n_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(f"density-matrix simulation capped at {MAX_DENSITY_QUBITS} qubits")
    if noise is None:
        noise = NoiseModel()
    depolarize, edge, damp = _superoperators(noise.p1, noise.p2, noise.t_damp)

    def rotate(rho, qubit, u):
        gate = (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(-1, 4, 4)
        return contract_axes(rho, [qubit, n + qubit], depolarize @ gate)

    def entangle(rho, edges):
        for a, b in edges:
            rho = contract_axes(rho, [a, b, n + a, n + b], edge)
        touched = {qubit for pair in edges for qubit in pair}
        for qubit in sorted(set(range(n)) - touched):
            rho = contract_axes(rho, [qubit, n + qubit], damp)
        return rho

    rho = _walk(circuit, theta, 2 * n, rotate, entangle)
    dim = 2**n
    return DensityMatrix(n, rho.reshape(np.shape(theta)[:-1] + (dim, dim)))


def evolve_noisy(circuit: CircuitSpec, theta, noise: NoiseModel) -> np.ndarray:
    """Outcome distribution of the circuit under the noise model, readout
    confusion included."""
    noise.check_register(circuit.n_qubits)
    rho = evolve_density(circuit, theta, noise)
    probs = exact_probabilities(rho)
    confusion = noise.confusion_matrices(circuit.n_qubits)
    if confusion is not None:
        probs = apply_readout(probs, confusion)
    return probs


def circuit_probabilities(
    circuit: CircuitSpec, theta, noise: NoiseModel | None = None
) -> np.ndarray:
    """Outcome distribution, picking the statevector path when noiseless.

    ``theta`` of shape (P,) gives one distribution (2^n,); a batch (B, P)
    gives (B, 2^n), simulated at most ``MAX_BATCH_BYTES`` of states at a time.
    """
    noiseless = noise is None or noise.is_noiseless()
    theta = np.asarray(theta, dtype=float)
    state_bytes = 16 * 2 ** (circuit.n_qubits * (1 if noiseless else 2))
    rows = max(1, MAX_BATCH_BYTES // state_bytes)
    if theta.ndim == 2 and len(theta) > rows:
        return np.concatenate(
            [
                circuit_probabilities(circuit, theta[i : i + rows], noise)
                for i in range(0, len(theta), rows)
            ]
        )
    if noiseless:
        return exact_probabilities(run_statevector(circuit, theta))
    return evolve_noisy(circuit, theta, noise)
