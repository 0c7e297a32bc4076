"""Exact statevector and density-matrix simulation of Rx/Rz/CNOT circuits.

Conventions: qubit 0 is the most significant bit of a basis index,
Rx(t) = exp(-i t X / 2) and Rz(t) = exp(-i t Z / 2), so shifting any angle by
pi/2 gives the exact parameter-shift derivative of outcome probabilities.
All operations are pure; randomness enters only through explicit generators.

Every simulator accepts one angle vector of shape (P,) or a batch of shape
(B, P) and runs each gate once over the whole batch.  A batch row goes through
exactly the floating-point operations it would go through alone, so batched
and row-by-row results are identical to the last bit.

Both simulators share one walk over the circuit (``_walk``).  A statevector
is a batch of n-axis tensors; a density matrix is a batch of 2n-axis tensors,
ket axes then bra axes, which the walk treats as a 2n-qubit register.  A
rotation contracts the ket axes with u by one BLAS matmul per batch row and,
for a density matrix, the bra axes with u.conj().  The CNOTs of one entangler
sub-covering act on disjoint qubits and only permute entries, so they become
one cached gather index, and each CNOT's 2-qubit channel follows the whole
permutation: a gather on one pair commutes exactly with a channel on another.

Every noise channel here is a sum of Kraus operators that each flip some
qubits and scale by a purely real or purely imaginary entry, so ``_channel``
applies an operator as an axis-reversing view times its entries: the one
product per output entry that a matmul by the operator would round, with the
same bytes.
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
    if np.any(p < 0.0) or np.any(totals <= 0.0):
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
# Noise channels and the circuit walk


def _compile_kraus(kraus) -> tuple[tuple[tuple, np.ndarray, np.ndarray], ...]:
    """Each Kraus operator K on k qubits as (flips, ket scale, bra scale) with
    K rho K^dagger = rho[flips] * ket * bra on a (B, ket axes, bra axes, rest)
    view of rho, where ``flips`` reverses the axes of the qubits K flips.

    K must map basis state j to i = j XOR m for one mask m, with a purely
    real or purely imaginary entry; any other operator raises.
    """
    tables = []
    for op in kraus:
        d = len(op)
        k = d.bit_length() - 1
        rows, cols = np.nonzero(op)
        masks = set((rows ^ cols).tolist())
        if len(masks) > 1 or np.any((op.real != 0) & (op.imag != 0)):
            raise ValueError("Kraus operator is not an X product with real or imaginary entries")
        mask = masks.pop() if masks else 0
        entries = op[np.arange(d), np.arange(d) ^ mask]
        bits = [(mask >> (k - 1 - b)) & 1 for b in range(k)]
        flips = tuple(slice(None, None, -1) if bit else slice(None) for bit in bits)
        tables.append(
            (
                (slice(None),) + flips + flips,
                entries.reshape((2,) * k + (1,) * (k + 1)),
                entries.conj().reshape((2,) * k + (1,)),
            )
        )
    return tuple(tables)


@lru_cache(maxsize=32)
def _noise_channels(p1: float, p2: float, t_damp: float) -> tuple:
    """Compiled 1-qubit depolarizing, 2-qubit depolarizing and damping
    channels (``_compile_kraus``); None for a channel of strength zero."""
    return (
        _compile_kraus(depolarizing_kraus(p1, 1)) if p1 > 0.0 else None,
        _compile_kraus(depolarizing_kraus(p2, 2)) if p2 > 0.0 else None,
        _compile_kraus(amplitude_damping_kraus(t_damp)) if t_damp > 0.0 else None,
    )


def _channel(rho: np.ndarray, n: int, qubits, tables) -> np.ndarray:
    """Sum of K rho K^dagger over a Kraus set compiled by ``_compile_kraus``,
    on the given qubits of each row of a (B, 2, ..., 2) batch.

    The channel's ket and bra axes move to the front once.  Each operator
    then costs a reversed view and two multiplies, ket side first, as its two
    matmuls ran.  A row of K has one nonzero entry, purely real or purely
    imaginary, so each multiply rounds the one product per output entry that
    the matmul rounded, and the matmul's other terms are exact zeros (a zero
    may differ in sign, which adding onto zeros erases).  Terms are added
    onto zeros in Kraus order, so the result has the bytes of the sum of
    per-operator ket and bra matmuls.
    """
    k = len(qubits)
    axes = [1 + q for q in qubits] + [1 + n + q for q in qubits]
    front = list(range(1, 2 * k + 1))
    rho = np.moveaxis(rho, axes, front)
    shape = rho.shape
    rho = rho.reshape(shape[: 2 * k + 1] + (-1,))
    out = np.zeros_like(rho)
    term = np.empty_like(rho)
    for flips, ket, bra in tables:
        np.multiply(rho[flips], ket, out=term)
        term *= bra
        out += term
    return np.moveaxis(out.reshape(shape), front, axes)


def _walk(
    circuit: CircuitSpec, theta, sides: int, channels: tuple = (None, None, None)
) -> np.ndarray:
    """Evolve |0...0> on ``sides`` copies of the register (1: ket, 2: ket and
    bra) through the circuit; ``channels`` are the compiled 1-qubit, 2-qubit
    and damping channels (``_noise_channels``), None where absent.  Returns a
    (B, 2, ..., 2) batch."""
    thetas = _check_theta(circuit, theta)
    n = circuit.n_qubits
    kraus_1q, kraus_2q, kraus_damp = channels
    state = np.zeros((len(thetas),) + (2,) * (sides * n), dtype=complex)
    state[(slice(None),) + (0,) * (sides * n)] = 1.0
    covering: list[tuple[int, int]] = []  # CNOTs of the current sub-covering
    for op, *args in circuit.instructions():
        if op == "cnot":
            covering.append((args[0], args[1]))
        elif op == "tick":
            edges = [(c + side * n, g + side * n) for side in range(sides) for c, g in covering]
            index = _cnot_permutation(sides * n, tuple(edges))
            state = state.reshape(len(state), -1)[:, index].reshape(state.shape)
            if kraus_2q is not None:
                for edge in covering:
                    state = _channel(state, n, edge, kraus_2q)
            if kraus_damp is not None:
                for qubit in range(n):
                    state = _channel(state, n, [qubit], kraus_damp)
            covering = []
        else:
            qubit, slot = args
            u = _rotations(op, thetas[:, slot])
            state = contract_axes(state, [qubit], u)
            if sides == 2:
                state = contract_axes(state, [n + qubit], u.conj())
            if kraus_1q is not None:
                state = _channel(state, n, [qubit], kraus_1q)
    return state


def run_statevector(circuit: CircuitSpec, theta) -> StateVector:
    """Evolve |0...0> through the circuit at rotation angles ``theta``; a
    batch of angle vectors gives a batch of states."""
    n = circuit.n_qubits
    if n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"statevector simulation capped at {MAX_STATEVECTOR_QUBITS} qubits")
    psi = _walk(circuit, theta, sides=1)
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
        rho = _walk(circuit, theta, sides=2)
    else:
        channels = _noise_channels(noise.p1, noise.p2, noise.t_damp)
        rho = _walk(circuit, theta, sides=2, channels=channels)
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
