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
(``_rotations``) and take a batch in join order: row 0, then each row from
the first slot whose angle differs from row 0's, before which it equals row
0 bit for bit.  The statevector walk computes only joined rows: a rotation is
one product at row 0's matrix over them, one stacked product that makes the
rows joining there from row 0's pre-gate state, and the joined rows that
differ again redone from their own; rows that never differ copy row 0.  The
state is (gate qubit, batch, other qubits in ascending order), transposed as
fixed per circuit (``_layouts``), and the CNOTs of a sub-covering only
permute entries, so they are one cached gather.  Each amplitude goes through
the same 2x2 BLAS arithmetic whatever a product's width, given a C-ordered
output (numpy transposes the product for another), rows of at least 4
columns (8 on the 4-qubit register) and the other qubits in ascending order
(a column's zero signs depend on its position).  The density path shares
one product over the whole batch and redoes the differing rows alone.

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

from functools import lru_cache

import numpy as np

from .ansatz import CircuitSpec
from .noise import NoiseModel, amplitude_damping_kraus, apply_readout, broadcast_kron, depolarizing_kraus

# circuit_probabilities simulates at most this many bytes of states at once:
# a long batch, such as the noisy half of a deploy (2 KB of density
# coordinates per trajectory row), would otherwise hold all of its states
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


def _word_count(entropy) -> int:
    """How many 32-bit words ``SeedSequence`` assembles from an int or a
    sequence of ints."""
    values = (entropy,) if isinstance(entropy, (int, np.integer)) else entropy
    return sum([(int(value).bit_length() + 31) // 32 or 1 for value in values])


@lru_cache(maxsize=16)
def _hash_constants(const: int, mult: int, skip: int, n: int) -> np.ndarray:
    """``SeedSequence``'s running hash constant as read-only uint32 rows
    (current, next) for the ``n`` words hashed after the first ``skip``."""
    consts = [const * pow(mult, skip + i, 1 << 32) & _MASK32 for i in range(n + 1)]
    table = np.array([consts[:-1], consts[1:]], dtype=np.uint32)
    table.flags.writeable = False
    return table


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
    """A seed sequence holding one stream's seed words: all that ``PCG64``
    asks of one.  Built on first use, as importing numpy.random with the
    package would add about 2.5 MB to every process that imports it,
    sampling or not."""
    from numpy.random.bit_generator import ISeedSequence

    class Seed(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            uint64 = dtype is np.uint64 or np.dtype(dtype) == np.uint64
            if n_words != len(self.words) or not uint64:
                raise ValueError(f"a seeded stream holds {len(self.words)} uint64 words")
            return self.words

    return Seed


def stream_seeds(entropies, counts) -> list[np.ndarray]:
    """Seed words of numpy's ``PCG64`` streams, computed in one vectorised
    pass: for each entropy and count, a (1, 4) uint64 array for the stream of
    ``SeedSequence(entropy)`` when the count is None, else (n, 4) for its n
    children, those of ``Generator.spawn(n)`` on that stream.  ``generators``
    makes the streams.

    Each parent's pool is numpy's own.  numpy seeds child k from the parent's
    entropy followed by the word k, and everything before that word is what
    it already hashed into the pool; so the word k of every child of every
    parent is mixed into its pool at once, then every stream's seed words
    are hashed from its pool at once.
    """
    pools, tables, sizes, spawned = [], [], [], []
    for entropy, n in zip(entropies, counts, strict=True):
        if n is not None and n < 0:
            raise ValueError(f"cannot spawn {n} streams")
        pools.append(np.random.SeedSequence(entropy).pool)
        # The pool took one hash per pool word, 12 to mix them, and 4 per
        # word past the pool size; a child's word k continues the hash
        # constant from there, its entropy padded to the pool size.
        skip = _POOL_SIZE * max(_POOL_SIZE, _word_count(entropy))
        tables.append(_hash_constants(_INIT_A, _MULT_A, skip, _POOL_SIZE))
        sizes.append(1 if n is None else n)
        spawned.append(n is not None)
    if not pools:
        return []
    ends = np.cumsum(sizes)
    pool, table = (np.repeat(a, sizes, axis=0) for a in (pools, tables))
    index = (np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)).astype(np.uint32)
    mixed = _mix(pool, _hash(index[:, None], table[:, 0], table[:, 1]))
    pool = np.where(np.repeat(spawned, sizes)[:, None], mixed, pool)
    # generate_state(4, np.uint64): 8 words hashed from the pool in turn,
    # paired little-endian into 64-bit words
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 0, 8)
    state = _hash(np.tile(pool, 2), xor, mul)
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    return [seeds[end - size : end] for end, size in zip(ends.tolist(), sizes)]


def generators(seeds) -> list[np.random.Generator]:
    """A generator per row of ``stream_seeds`` words, drawing what numpy's
    stream with those words draws."""
    seed = _seed_type()
    return [np.random.Generator(np.random.PCG64(seed(row))) for row in seeds]


def sample_counts(probs, n_shots: int, streams) -> np.ndarray:
    """Draw ``n_shots`` basis-state samples from each row of ``probs``
    (shape (B, 2^n)), row k from generator ``streams[k]``, or from one
    distribution (2^n,) with every generator; counts (len(streams), 2^n)."""
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    p = np.asarray(probs, dtype=float)
    if p.ndim not in (1, 2) or p.ndim == 2 and len(p) != len(streams):
        raise ValueError(f"need one generator per row, got {len(streams)} for {p.shape}")
    totals = p.sum(axis=-1, keepdims=True)
    # NaN fails every comparison; initial values let an empty batch through
    if not (
        p.min(initial=0.0) >= 0.0
        and totals.min(initial=np.inf) > 0.0
        and totals.max(initial=0.0) < np.inf
    ):
        raise ValueError("probabilities must be nonnegative with positive sum")
    counts = np.empty((len(streams), p.shape[-1]), dtype=np.int64)
    for stream, row, out in zip(streams, np.broadcast_to(p / totals, counts.shape), counts):
        out[...] = stream.multinomial(n_shots, row)
    return counts


def sample_histogram(probs, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """Counts (2^n,) of ``n_shots`` i.i.d. basis-state samples from one
    distribution (2^n,); deterministic given ``rng``."""
    if np.ndim(probs) != 1:
        raise ValueError(f"need one distribution (2^n,), got shape {np.shape(probs)}")
    return sample_counts(probs, n_shots, [rng])[0]


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
    """(order, starts, rows, bounds, u) for ``theta`` (P,) or (B, P): the
    batch in join order, rows sorted by the first slot whose angle differs
    from row 0's in bit pattern, and ``starts[s]`` rows joined before slot s.
    Slot s's rotations are u[bounds[s]:bounds[s + 1]], at row 0's angle, then
    at the differing rows ``rows[bounds[s] + 1:bounds[s + 1]]`` (positions in
    join order).  Entries come from numpy's complex exp, whose parts at a zero
    real part are ``math.cos`` and ``math.sin`` (numpy's own may differ)."""
    thetas = np.asarray(theta, dtype=float)
    n_params = circuit.parameter_count
    if thetas.ndim not in (1, 2) or thetas.shape[-1] != n_params or not len(thetas):
        raise ValueError(f"need {n_params} angles or a nonempty batch of them, got {thetas.shape}")
    thetas = thetas.reshape(-1, n_params)
    rx = _plan(circuit)[1]
    own = np.ones((len(thetas), n_params + 1), dtype=bool)  # a row that never differs joins last
    np.not_equal(thetas.view(np.uint64), thetas[:1].view(np.uint64), out=own[:, :-1])
    joins = own.argmax(axis=1)
    joins[0] = -1
    order = np.argsort(joins, kind="stable")
    starts = np.searchsorted(joins[order], np.arange(n_params + 1)).tolist()
    own = own[order, :-1]
    own[0] = True  # row 0 holds each slot's shared matrix
    slots, rows = np.nonzero(own.T)  # by slot, row 0 first in each
    bounds = np.searchsorted(slots, np.arange(n_params + 1)).tolist()
    is_rx = rx[slots]
    half = np.exp(-0.5j * thetas[order[rows], slots])  # cos(a / 2) - i sin(a / 2)
    u = np.zeros((len(half), 2, 2), dtype=complex)
    u[:, 0, 0] = np.where(is_rx, half.real, half)
    u[:, 1, 1] = np.where(is_rx, half.real, half.conj())
    u.imag[:, 0, 1] = u.imag[:, 1, 0] = np.where(is_rx, half.imag, 0.0)
    return order, starts, rows, bounds, u


@lru_cache(maxsize=64)
def _layouts(circuit: CircuitSpec) -> tuple:
    """The statevector walk's steps.  The state is (2, B, 2^(n-1)): a leading
    qubit, the batch, then the other qubits in ascending order.  A rotation is
    (qubit, slot, perm), perm the transpose of the state's (n + 1)-axis view
    that brings the qubit to lead (None if it leads); the CNOTs of a
    sub-covering are (None, (lead, rest), None), each amplitude's source as one
    gather into qubit 0's lead; then the transpose of the last state to
    (B, qubits)."""
    n = circuit.n_qubits

    def axes(q):  # the (n + 1)-axis view with q leading; axis n is the batch
        return (q, n) + tuple(a for a in range(n) if a != q)

    lead, walk = 0, []
    for qubit, arg in _plan(circuit)[0]:
        if qubit is None:
            source, low = _cnot_permutation(n, arg).reshape(2, 1, -1), n - 1 - lead
            rest = source >> (low + 1) << low | source & ((1 << low) - 1)
            walk.append((None, (source >> low & 1, rest), None))
            lead = 0
        else:
            walk.append((qubit, arg, None if qubit == lead else tuple(map(axes(lead).index, axes(qubit)))))
            lead = qubit
    return tuple(walk), tuple(map(axes(lead).index, (n, *range(n))))


def run_statevector(circuit: CircuitSpec, theta) -> np.ndarray:
    """Amplitudes of |0...0> evolved through the circuit at rotation angles
    ``theta``: shape (2^n,) for one angle vector, (B, 2^n) for a batch."""
    n = circuit.n_qubits
    order, starts, rows, bounds, u = _rotations(circuit, theta)
    walk, final = _layouts(circuit)
    batch, width = len(order), 2 ** (n - 1)
    shape = (2, batch) + (2,) * (n - 1)
    # two C-ordered states (BLAS rounds by the output's order) that the walk
    # alternates between, each with its rows as (2, width) matrices and row 0
    states = np.zeros((2, 2, batch * width), dtype=complex)
    rows_of = states.reshape(2, 2, batch, width).transpose(0, 2, 1, 3)
    psi, out = [(state, each, state[:, :width]) for state, each in zip(states, rows_of)]
    psi[0][0, 0] = 1.0
    every = np.arange(batch)[:, None]
    for qubit, slot, perm in walk:
        if qubit is None:  # the CNOTs of a sub-covering: one gather
            lead, rest = slot
            out[0].reshape(2, batch, width)[...] = psi[0].reshape(2, batch, width)[lead, every, rest]
            psi, out = out, psi
            continue
        if perm is not None:  # bring the qubit to lead
            np.copyto(out[0].reshape(shape), psi[0].reshape(shape).transpose(perm))
            psi, out = out, psi
        (x, x_rows, x0), (y, y_rows, _) = psi, out
        lo, hi, k, joined = bounds[slot], bounds[slot + 1], starts[slot], starts[slot + 1]
        mid = hi - joined + k  # u[lo + 1:mid] redo joined rows, u[mid:hi] make the joining ones
        shared = 1 if mid - lo == k else k  # row 0 alone when every other joined row is redone
        np.matmul(u[lo], x[:, : shared * width], out=y[:, : shared * width])
        if joined > k:
            np.matmul(u[mid:hi], x0, out=y_rows[k:joined])
        if shared < k:  # every other joined row differs again: redone in place
            np.matmul(u[lo + 1 : mid], x_rows[1:k], out=y_rows[1:k])
        elif mid > lo + 1:  # some joined rows differ again: redone by a gather
            redo = rows[lo + 1 : mid]
            y_rows[redo] = u[lo + 1 : mid] @ x_rows[redo]
        psi, out = out, psi
    back = np.argsort(order)
    back[back >= starts[-1]] = 0  # rows that never differ are row 0
    psi = psi[0].reshape(shape).transpose(final).reshape(batch, -1).take(back, axis=0)
    return psi.reshape(np.shape(theta)[:-1] + (2**n,))


@lru_cache(maxsize=64)
def _schedule(circuit: CircuitSpec) -> tuple:
    """The density path's gates in program order, (qubits, slot, perm, turn,
    src, dst) with slot None for an edge or a damping, then the split shape and
    axes of (B, kets, bras).  Axis q holds qubit q's pair, axis n the batch,
    from (0, ..., n): ``perm`` copies the state so that the qubits lead,
    ``turn`` moves them to the back in the product, ``src`` and ``dst`` view
    it before and after as (B, qubits, rest)."""
    n = circuit.n_qubits
    gates = []
    for qubit, arg in _plan(circuit)[0]:
        if qubit is not None:
            gates.append(((qubit,), arg))
        else:
            touched = {q for edge in arg for q in edge}
            gates += [(e, None) for e in arg] + [((q,), None) for q in range(n) if q not in touched]
    wants = [q for q, _ in gates] + [()]
    order, steps = tuple(range(n + 1)), []
    for i, (qubits, slot) in enumerate(gates):
        k, perm = len(qubits), None
        if order[: len(wants[i])] != wants[i]:
            # the other qubits by next use, so that the next gates lead in turn
            later = [q for g, _ in gates[i:] for q in g] + list(range(n + 1))
            new = tuple(dict.fromkeys(later))
            perm, order = tuple(map(order.index, new)), new
        turn = order[: len(wants[i + 1])] != wants[i + 1]
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
    noise = noise or NoiseModel()
    depolarize, edge, damp = _superoperators(noise.p1, noise.p2, noise.t_damp)
    order, _, rows, bounds, u = _rotations(circuit, theta)
    batch, rows = len(order), order[rows]
    mats = depolarize @ _in_coordinates(broadcast_kron(u, u.conj()))
    steps, split, final = _schedule(circuit)
    rho = np.zeros((4,) * n + (batch,))
    rho[(0,) * n] = 1.0
    for qubits, slot, perm, turn, src, dst in steps:
        if perm is not None:
            rho = rho.transpose(perm).copy()
        k, shape = len(qubits), rho.shape
        m = (edge if k == 2 else damp) if slot is None else mats[bounds[slot]]
        x = rho.reshape(4**k, -1)
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
