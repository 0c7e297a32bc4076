"""Exact statevector and density-matrix simulation of Rx/Rz/CNOT circuits.

Conventions: qubit 0 is the most significant bit of a basis index,
Rx(t) = exp(-i t X / 2) and Rz(t) = exp(-i t Z / 2), so shifting any angle by
pi/2 gives the exact parameter-shift derivative of outcome probabilities.
All operations are pure; randomness enters only through explicit generators.

Every simulator accepts one angle vector of shape (P,) or a batch of shape
(B, P) and runs each gate once over the whole batch.  A batch row goes through
exactly the floating-point operations it would go through alone, so batched
and row-by-row results are identical to the last bit.

A density matrix is a batch of 2n-axis tensors (ket axes, then bra axes).
Rotations conjugate it with one BLAS matmul per batch row on each side, and
CNOTs permute its entries.  Every noise channel here is a sum of Kraus
operators that each flip some qubits and scale by a purely real or purely
imaginary entry, so ``_channel`` applies an operator as an axis-reversing view
times its entries: the one product per output entry that a matmul by the
operator would round, with the same bytes.
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

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)


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


def _permute(t: np.ndarray, index: np.ndarray) -> np.ndarray:
    return t.reshape(len(t), -1)[:, index].reshape(t.shape)


def _check_qubit(n_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {n_qubits}-qubit register")


def _rotate(state: StateVector, qubit: int, gate: str, angle: float) -> StateVector:
    n = state.n_qubits
    _check_qubit(n, qubit)
    u = _rotations(gate, np.array([angle], dtype=float))
    psi = contract_axes(state.amplitudes.reshape((-1,) + (2,) * n), [qubit], u)
    return StateVector(n, psi.reshape(state.amplitudes.shape))


def apply_rx(state: StateVector, qubit: int, angle: float) -> StateVector:
    """Rotate one qubit about X by ``angle``."""
    return _rotate(state, qubit, "rx", angle)


def apply_rz(state: StateVector, qubit: int, angle: float) -> StateVector:
    """Rotate one qubit about Z by ``angle``; outcome probabilities unchanged."""
    return _rotate(state, qubit, "rz", angle)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip ``target`` wherever ``control`` is set."""
    n = state.n_qubits
    _check_qubit(n, control)
    _check_qubit(n, target)
    if control == target:
        raise ValueError("CNOT control and target must differ")
    return StateVector(n, state.amplitudes[..., _cnot_permutation(n, ((control, target),))])


def _check_theta(circuit: CircuitSpec, theta) -> np.ndarray:
    """Angles as a (B, P) batch; ``theta`` is one vector (P,) or a batch."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != circuit.parameter_count:
        raise ValueError(
            f"circuit has {circuit.parameter_count} parameters, got {theta.shape}"
        )
    return theta.reshape(-1, circuit.parameter_count)


def run_statevector(circuit: CircuitSpec, theta) -> StateVector:
    """Evolve |0...0> through the circuit at rotation angles ``theta``; a
    batch of angle vectors gives a batch of states."""
    thetas = _check_theta(circuit, theta)
    n = circuit.n_qubits
    if n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"statevector simulation capped at {MAX_STATEVECTOR_QUBITS} qubits")
    psi = np.zeros((len(thetas),) + (2,) * n, dtype=complex)
    psi[(slice(None),) + (0,) * n] = 1.0
    cnots: list[tuple[int, int]] = []  # applied together as one permutation
    for op, *args in (*circuit.instructions(), ("end",)):
        if op == "cnot":
            cnots.append(tuple(args))
        elif op != "tick":  # ticks mark gate time only
            if cnots:
                psi = _permute(psi, _cnot_permutation(n, tuple(cnots)))
                cnots = []
            if op != "end":
                psi = contract_axes(psi, [args[0]], _rotations(op, thetas[:, args[1]]))
    return StateVector(n, psi.reshape(np.shape(theta)[:-1] + (2**n,)))


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
# Density-matrix evolution under noise


def _conjugate(rho: np.ndarray, n: int, qubits, u: np.ndarray) -> np.ndarray:
    """u rho u^dagger on the given qubits of each row of a (B, 2, ..., 2) batch."""
    rho = contract_axes(rho, qubits, u)
    return contract_axes(rho, [n + q for q in qubits], u.conj())


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
    per-operator ``_conjugate`` calls.
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


def evolve_density(
    circuit: CircuitSpec, theta, noise: NoiseModel | None = None
) -> DensityMatrix:
    """Density-matrix evolution; each gate is followed by its noise channel
    and every entangler sub-covering by per-qubit amplitude damping.  A batch
    of angle vectors gives a batch of density matrices."""
    thetas = _check_theta(circuit, theta)
    n = circuit.n_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(f"density-matrix simulation capped at {MAX_DENSITY_QUBITS} qubits")
    kraus_1q, kraus_2q, kraus_damp = (None, None, None)
    if noise is not None:
        kraus_1q, kraus_2q, kraus_damp = _noise_channels(noise.p1, noise.p2, noise.t_damp)

    rho = np.zeros((len(thetas),) + (2,) * (2 * n), dtype=complex)
    rho[(slice(None),) + (0,) * (2 * n)] = 1.0
    for instr in circuit.instructions():
        op = instr[0]
        if op in ("rx", "rz"):
            qubit = instr[1]
            rho = _conjugate(rho, n, [qubit], _rotations(op, thetas[:, instr[2]]))
            if kraus_1q is not None:
                rho = _channel(rho, n, [qubit], kraus_1q)
        elif op == "cnot":
            control, target = instr[1], instr[2]
            # ket and bra index together form a 2n-qubit register
            edges = ((control, target), (n + control, n + target))
            rho = _permute(rho, _cnot_permutation(2 * n, edges))
            if kraus_2q is not None:
                rho = _channel(rho, n, [control, target], kraus_2q)
        elif op == "tick" and kraus_damp is not None:
            for qubit in range(n):
                rho = _channel(rho, n, [qubit], kraus_damp)
    dim = 2**n
    return DensityMatrix(n, rho.reshape(np.shape(theta)[:-1] + (dim, dim)))


def evolve_noisy(circuit: CircuitSpec, theta, noise: NoiseModel) -> np.ndarray:
    """Outcome distribution of the circuit under the noise model, readout
    confusion included."""
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
