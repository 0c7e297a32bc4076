"""Exact statevector and density-matrix simulation of Rx/Rz/CNOT circuits.

Conventions: qubit 0 is the most significant bit of a basis index,
Rx(t) = exp(-i t X / 2) and Rz(t) = exp(-i t Z / 2), so shifting any angle by
pi/2 gives the exact parameter-shift derivative of outcome probabilities.
All operations are pure; randomness enters only through explicit generators.

Every simulator accepts one angle vector of shape (P,) or a batch of shape
(B, P), and a gate costs a few numpy calls whatever B is.  A batch row goes
through exactly the floating-point operations it would go through alone, so
batched and row-by-row results are identical to the last bit.

Results are plain arrays, with the batch axis first when there is one:
amplitudes (2^n,) from ``run_statevector``, real density-matrix coordinates
(2^n, 2^n) from ``evolve_density``, outcome distributions (2^n,) from
``circuit_probabilities`` and int64 counts (2^n,) from the samplers.  The
shot count of a counts row is its sum.

Both simulators build every rotation matrix before the first gate
(``_rotations``).  A rotation is one shared product at row 0's matrix; the
rows whose angle differs from row 0's (2 of the 2P+1 rows of a
parameter-shift batch) are then redone alone from their pre-gate state with
their own matrices.  A statevector is a batch of n-axis tensors; the CNOTs of
a sub-covering only permute entries, so they become one cached gather index.

A density matrix is held in real coordinates: qubit q's (ket bit, bra bit)
pair holds the coefficients of |0><0|, X, Y and |1><1| at 0, 1, 2, 3, so the
diagonal of the (2^n, 2^n) coordinates is exactly the populations.  Each
gate is one product of a real F S T (``_in_coordinates``, S a superoperator
on matrix entries) with its noise fused in: a rotation u is the 4x4
``D1 @ F kron(u, u.conj()) T``, D1 the 1-qubit depolarizing channel; a CNOT
edge is one 16x16 matrix, the CNOT on both sides, the 2-qubit depolarizing
channel and the damping of its qubits; a qubit no edge of a sub-covering
touches is damped.  The state is one (4,) * n + (B,) array whose axis order
follows the circuit (``_schedule``): a gate on the leading qubits is one
product ``m @ x``, or ``x.T @ m.T`` to move them to the back and so bring
the next gate's to the front; only where that order breaks is the state
copied (6 times in the 36 gates of d_c = 4, L = 2).

Channels on disjoint qubits commute, so this is the gate-by-gate order
(gate, its channel, damping after each sub-covering) up to rounding: entries
stay within 1e-12 of a walk that applies every gate and Kraus operator by
its own complex matmuls (at most 7.8e-16 measured, strengths 0 to 1).  As
real products round otherwise, noisy digests say ``density_path_version = 3``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .ansatz import CircuitSpec
from .noise import (
    MAX_DENSITY_QUBITS,
    NoiseModel,
    amplitude_damping_kraus,
    apply_readout,
    broadcast_kron,
    contract_axis,
    depolarizing_kraus,
)

MAX_STATEVECTOR_QUBITS = 24
# circuit_probabilities simulates at most this many bytes of states at once,
# which bounds memory for wide registers and long batches
MAX_BATCH_BYTES = 2**25


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


# numpy's SeedSequence hash (after O'Neill's seed_seq_fe): the initial hash
# constants and their multipliers, the two mix multipliers, and a 4-word pool
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _word_count(value) -> int:
    """How many 32-bit words ``SeedSequence`` assembles from an int or a
    (nested) sequence of ints."""
    if isinstance(value, (int, np.integer)):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(map(_word_count, value))


def _hash_constants(const: int, mult: int, skip: int, n: int) -> np.ndarray:
    """``SeedSequence``'s running hash constant as uint32 rows (current,
    next) for the ``n`` words hashed after the first ``skip``."""
    consts = [const * pow(mult, skip + i, 1 << 32) & _MASK32 for i in range(n + 1)]
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)


def _hash(value, xor, mul):
    """``SeedSequence``'s hash of one word (its hashmix) with the constant
    pair (xor, mul); on uint32 arrays, which wrap silently."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """``SeedSequence``'s mix of two words; on uint32 arrays."""
    result = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return result ^ result >> 16


@lru_cache(maxsize=1)
def _seed_type() -> type:
    """A seed sequence holding one spawned stream's seed words: all that
    ``PCG64`` asks of one.  Built on first use, as importing numpy.random
    with the package would add about 2.5 MB to every process that imports
    it, sampling or not."""
    from numpy.random.bit_generator import ISeedSequence

    class Seed(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a spawned stream holds {len(self.words)} uint64 words")
            return self.words

    return Seed


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """``n`` independent generators whose ``PCG64`` states are exactly those
    of ``rng.spawn(n)``, computed in one vectorised pass.

    numpy's ``SeedSequence`` seeds child k from the parent's entropy and
    spawn key followed by the word k.  Everything before that word is what
    numpy already hashed into the parent's pool, so the word k is mixed into
    that pool for all children at once, and each child's ``PCG64`` gets its
    seed words directly.  ``rng`` acts as a seed: its spawn counter is not
    advanced, so equal generators spawn equal children.  Only a ``PCG64``
    generator seeded by a 4-word ``SeedSequence`` that has spawned nothing is
    accepted.
    """
    bit_generator = rng.bit_generator
    seq = bit_generator.seed_seq
    if type(bit_generator) is not np.random.PCG64:
        raise ValueError(f"spawn needs a PCG64 generator, got {type(bit_generator).__name__}")
    if type(seq) is not np.random.SeedSequence or seq.pool_size != _POOL_SIZE:
        raise ValueError(f"spawn needs a SeedSequence with a {_POOL_SIZE}-word pool")
    if seq.n_children_spawned:
        raise ValueError("spawn needs a generator that has not spawned yet")
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")

    # The parent's pool took one hash per pool word, 12 to mix them, and 4
    # per word past the pool size, counting the entropy padded to the pool
    # size when the spawn key is nonempty; the child's word k continues the
    # hash constant from there, one row of (n, 4) pool words per child.
    extra = max(0, _word_count(seq.entropy) - _POOL_SIZE) + _word_count(seq.spawn_key)
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra), _POOL_SIZE)
    index = np.arange(n, dtype=np.uint32)[:, None]
    pool = _mix(seq.pool, _hash(index, xor, mul))
    # generate_state(4, np.uint64): 8 words hashed from the pool in turn,
    # paired little-endian into 64-bit words
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 0, 8)
    state = _hash(np.tile(pool, 2), xor, mul)
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    seed = _seed_type()
    return [np.random.Generator(np.random.PCG64(seed(row))) for row in seeds]


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


def sample_histogram(probs, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """Counts (2^n,) of ``n_shots`` i.i.d. basis-state samples; deterministic
    given ``rng``."""
    return sample_counts(np.asarray(probs, dtype=float)[None], n_shots, [rng])[0]


# ---------------------------------------------------------------------------
# The circuit's rotations, the two simulators and the density path's matrices

_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
# T maps one qubit's real coordinates to its density-matrix entries; F = T^-1
_T = np.array([[1, 0, 0, 0], [0, 1, -1j, 0], [0, 1, 1j, 0], [0, 0, 0, 1]])
_F = np.array([[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5j, -0.5j, 0], [0, 0, 0, 1]])


def _regroup(m: np.ndarray) -> np.ndarray:
    """A 16x16 matrix on axes [a, b, n+a, n+b] on the pairs of a then b, or back."""
    return m.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


# F and T on two qubits' axes [a, b, n+a, n+b]
_F2, _T2 = (_regroup(broadcast_kron(m, m)) for m in (_F, _T))


def _superoperator(kraus) -> np.ndarray:
    """Sum of K (x) K.conj() over a Kraus set: the channel as one matrix on
    the ket index then the bra index of its qubits.  The sum adds the
    operators one after another, in order."""
    kraus = np.asarray(kraus)
    return broadcast_kron(kraus, kraus.conj()).sum(axis=0)


def _in_coordinates(s: np.ndarray) -> np.ndarray:
    """F s T, a superoperator s (4x4 or a stack, or 16x16 on [a, b, n+a, n+b])
    on real coordinates; s keeps matrices Hermitian, so the dropped imaginary
    part is rounding."""
    f, t = (_F, _T) if s.shape[-1] == 4 else (_F2, _T2)
    return np.ascontiguousarray((f @ s @ t).real)


@lru_cache(maxsize=32)
def _superoperators(p1: float, p2: float, t_damp: float) -> tuple:
    """The density path's fixed real matrices at one noise strength: the
    1-qubit depolarizing channel (4x4); a CNOT edge (a, b), the 2-qubit one
    and damping of a and b (16x16 on a's pair, then b's); and the damping of
    one qubit (4x4).  A zero strength gives an identity."""
    damp = np.asarray(amplitude_damping_kraus(t_damp))
    damp_pair = _superoperator(broadcast_kron(damp[:, None], damp).reshape(4, 4, 4))
    edge = damp_pair @ _superoperator(depolarizing_kraus(p2, 2)) @ broadcast_kron(_CNOT, _CNOT)
    depolarize, damp = _superoperator(depolarizing_kraus(p1, 1)), _superoperator(damp)
    mats = _in_coordinates(depolarize), _regroup(_in_coordinates(edge)), _in_coordinates(damp)
    for m in mats:
        m.flags.writeable = False
    return mats


@lru_cache(maxsize=64)
def _plan(circuit: CircuitSpec) -> tuple:
    """The circuit's steps in program order, (qubit, slot) for a rotation or
    (None, edges) for the CNOTs of one sub-covering, and its Rx slots."""
    steps = []
    rx = np.zeros(circuit.parameter_count, dtype=bool)
    for op, *args in circuit.instructions():
        if op == "cnots":
            steps.append((None, args[0]))
        else:
            steps.append((args[0], args[1]))
            rx[args[1]] = op == "rx"
    rx.flags.writeable = False
    return tuple(steps), rx


def _rotations(circuit: CircuitSpec, theta) -> tuple:
    """(B, rows, bounds, u) for ``theta`` (P,) or (B, P): slot s's rotations
    u[bounds[s]:bounds[s + 1]] at row 0's angle, then at the rows whose angle
    differs from it in bit pattern, ``rows[bounds[s] + 1:bounds[s + 1]]``.  Rx
    entries use the scalar ``math.cos`` and ``math.sin`` (numpy's may differ)."""
    thetas = np.asarray(theta, dtype=float)
    n_params = circuit.parameter_count
    if thetas.ndim not in (1, 2) or thetas.shape[-1] != n_params or not len(thetas):
        raise ValueError(f"need {n_params} angles or a nonempty batch of them, got {thetas.shape}")
    thetas = thetas.reshape(-1, n_params)
    rx = _plan(circuit)[1]
    own = thetas.view(np.uint64) != thetas[:1].view(np.uint64)
    own[:1] = True  # row 0 holds each slot's shared matrix
    slots, rows = np.nonzero(own.T)  # by slot, row 0 first in each
    bounds = np.searchsorted(slots, np.arange(n_params + 1)).tolist()
    angles, is_rx = thetas[rows, slots], rx[slots]
    u = np.zeros((len(angles), 2, 2), dtype=complex)
    half = (angles[is_rx] / 2.0).tolist()
    u[is_rx, 0, 0] = u[is_rx, 1, 1] = [math.cos(a) for a in half]
    u.imag[is_rx, 0, 1] = u.imag[is_rx, 1, 0] = [-math.sin(a) for a in half]
    phase = np.exp(-0.5j * angles[~is_rx])
    u[~is_rx, 0, 0], u[~is_rx, 1, 1] = phase, phase.conj()
    return len(thetas), rows, bounds, u


def run_statevector(circuit: CircuitSpec, theta) -> np.ndarray:
    """Amplitudes of |0...0> evolved through the circuit at rotation angles
    ``theta``: shape (2^n,) for one angle vector, (B, 2^n) for a batch."""
    n = circuit.n_qubits
    if n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"statevector simulation capped at {MAX_STATEVECTOR_QUBITS} qubits")
    batch, rows, bounds, u = _rotations(circuit, theta)
    psi = np.zeros((batch,) + (2,) * n, dtype=complex)
    psi[(slice(None),) + (0,) * n] = 1.0
    for qubit, arg in _plan(circuit)[0]:
        if qubit is None:
            psi = psi.reshape(batch, -1)[:, _cnot_permutation(n, arg)].reshape(psi.shape)
            continue
        lo, hi = bounds[arg : arg + 2]
        out = contract_axis(psi, qubit, u[lo])  # one product at row 0's matrix
        if hi - lo > 1:  # then the rows that differ, redone alone
            out[rows[lo + 1 : hi]] = contract_axis(psi[rows[lo + 1 : hi]], qubit, u[lo + 1 : hi])
        psi = out
    return psi.reshape(np.shape(theta)[:-1] + (2**n,))


@lru_cache(maxsize=64)
def _schedule(circuit: CircuitSpec) -> tuple:
    """The density path's gates in program order, (qubits, slot, perm, turn,
    src, dst) with slot None for an edge or a damping, then the split shape and
    axes of (B, kets, bras).  Axis q holds qubit q's pair, axis n the batch,
    from (0, ..., n): ``perm`` copies the state so that the qubits lead (after
    the batch when they are all), ``turn`` moves them to the back in the
    product, ``src`` and ``dst`` view it before and after as (B, qubits, rest)."""
    n = circuit.n_qubits
    gates = []
    for qubit, arg in _plan(circuit)[0]:
        if qubit is not None:
            gates.append(((qubit,), arg))
        else:
            touched = {q for edge in arg for q in edge}
            gates += [(e, None) for e in arg] + [((q,), None) for q in range(n) if q not in touched]
    wants = [(n,) * (len(q) == n) + q for q, _ in gates] + [()]
    order, steps = tuple(range(n + 1)), []
    for i, (qubits, slot) in enumerate(gates):
        k, perm = len(qubits), None
        if order[: len(wants[i])] != wants[i]:
            # the other qubits by next use, so that the next gates lead in turn
            later = [q for g, _ in gates[i:] for q in g] + list(range(n + 1))
            new = wants[i] if k == n else tuple(dict.fromkeys(later))
            perm, order = tuple(map(order.index, new)), new
        turn = k < n and order[: len(wants[i + 1])] != wants[i + 1]
        front = (n, *qubits, *(a for a in order if a != n and a not in qubits))
        after = order[k:] + order[:k] if turn else order
        src, dst = (tuple(map(o.index, front)) for o in (order, after))
        steps.append((qubits, slot, perm, turn, src, dst))
        order = after
    axes = [x for a in order for x in ([-1] if a == n else [a, n + a])]  # batch, kets, bras
    split = tuple(-1 if a < 0 else 2 for a in axes)
    return tuple(steps), split, tuple(sorted(range(2 * n + 1), key=axes.__getitem__))


def evolve_density(circuit: CircuitSpec, theta, noise: NoiseModel | None = None) -> np.ndarray:
    """Real coordinates (module docstring) of the output density matrix, (d, d)
    with d = 2^n or (B, d, d), diagonal the populations; each gate is followed
    by its noise channel, each entangler sub-covering by amplitude damping."""
    n = circuit.n_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(f"density-matrix simulation capped at {MAX_DENSITY_QUBITS} qubits")
    noise = noise or NoiseModel()
    depolarize, edge, damp = _superoperators(noise.p1, noise.p2, noise.t_damp)
    batch, rows, bounds, u = _rotations(circuit, theta)
    mats = depolarize @ _in_coordinates(broadcast_kron(u, u.conj()))
    steps, split, final = _schedule(circuit)
    rho = np.zeros((4,) * n + (batch,))
    rho[(0,) * n] = 1.0
    for qubits, slot, perm, turn, src, dst in steps:
        if perm is not None:
            rho = rho.transpose(perm).copy()
        k, shape = len(qubits), rho.shape
        m = (edge if k == 2 else damp) if slot is None else mats[bounds[slot]]
        # a lone row is 1 column, which BLAS rounds otherwise: k == n takes a product per row
        x = rho.reshape((-1, 4**k, 1) if k == n else (4**k, -1))
        out = (x.T @ m.T).reshape(shape[k:] + shape[:k]) if turn else (m @ x).reshape(shape)
        lo, hi = (0, 1) if slot is None else bounds[slot : slot + 2]
        if hi - lo > 1:  # the rows whose angle differs, redone alone
            redo, view = rows[lo + 1 : hi], out.transpose(dst)
            redone = mats[lo + 1 : hi] @ rho.transpose(src)[redo].reshape(len(redo), 4**k, -1)
            view[redo] = redone.reshape((-1,) + view.shape[1:])
        rho = out
    return rho.reshape(split).transpose(final).reshape(np.shape(theta)[:-1] + (2**n, 2**n))


def circuit_probabilities(
    circuit: CircuitSpec, theta, noise: NoiseModel | None = None
) -> np.ndarray:
    """Outcome distribution: |psi|^2 when noiseless, else the density
    matrix's populations (negative rounding clipped) followed by the readout
    confusion.

    ``theta`` of shape (P,) gives one distribution (2^n,); a batch (B, P)
    gives (B, 2^n), simulated at most ``MAX_BATCH_BYTES`` of states at a time.
    """
    noiseless = noise is None or noise.is_noiseless()
    theta = np.asarray(theta, dtype=float)
    state_bytes = 16 * 2**circuit.n_qubits if noiseless else 8 * 4**circuit.n_qubits
    rows = max(1, MAX_BATCH_BYTES // state_bytes)
    if theta.ndim == 2 and len(theta) > rows:
        return np.concatenate(
            [
                circuit_probabilities(circuit, theta[i : i + rows], noise)
                for i in range(0, len(theta), rows)
            ]
        )
    if noiseless:
        probs = np.abs(run_statevector(circuit, theta)) ** 2
        return probs / probs.sum(axis=-1, keepdims=True)
    noise.check_register(circuit.n_qubits)
    probs = np.diagonal(evolve_density(circuit, theta, noise), axis1=-2, axis2=-1).copy()
    if probs.min() < -1e-8:
        raise ValueError("density matrix has significantly negative populations")
    np.clip(probs, 0.0, None, out=probs)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    confusion = noise.confusion_matrices(circuit.n_qubits)
    return probs if confusion is None else apply_readout(probs, confusion)
