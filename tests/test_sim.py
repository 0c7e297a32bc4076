import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from bornbench import (
    CircuitSpec,
    EntanglerLayer,
    NoiseModel,
    TrainingConfig,
    amplitude_damping_kraus,
    build_circuit,
    circuit_probabilities,
    depolarizing_kraus,
    evolve_density,
    kl_sampling_summary,
    rng_stream,
    run_statevector,
    sample_histogram,
    shift_probabilities,
)
from bornbench import sim
from bornbench.mmd import shift_batch
from bornbench.noise import broadcast_kron
from bornbench.sim import generators, stream_seeds
from bornbench.training import TAG_DEPLOY, TAG_GRAD
from conftest import density_matrix
from test_mmd import sampled_gradient
from test_properties import PROPERTY


def random_circuit_theta(d_c, layers, seed):
    circuit = build_circuit(4, d_c, layers)
    rng = np.random.default_rng(seed)
    return circuit, rng.uniform(0, 2 * np.pi, circuit.parameter_count)


def density_populations(circuit, theta, noise=None):
    """The diagonal of the circuit's output density matrix."""
    return np.diagonal(evolve_density(circuit, theta, noise))


def cnots(*sub_coverings):
    """One entangling layer of the given sub-coverings of (control, target)."""
    return EntanglerLayer(tuple(sub_coverings))


# Two qubits in an entangled state: (Rx, Rz) on each, CNOT 0->1, then the
# layer under test; PREP_2Q holds the preparation's 4 angles.
PREP_2Q = [0.7, -1.9, 2.3, 0.4]


def prepared_2q(pattern):
    return CircuitSpec(2, (("rx", "rz"), pattern), (cnots(((0, 1),)),))


def test_rx_half_turn():
    probs = circuit_probabilities(CircuitSpec(1, (("rx",),), ()), [math.pi / 2])
    assert np.allclose(probs, [0.5, 0.5], rtol=0.0, atol=1e-15)


def test_rx_identity_and_flip():
    circuit = prepared_2q(("rx",))
    state = run_statevector(circuit, PREP_2Q + [0.0, 0.0])
    assert np.allclose(state, run_statevector(prepared_2q(()), PREP_2Q), rtol=0.0, atol=1e-15)
    flipped = circuit_probabilities(CircuitSpec(1, (("rx",),), ()), [math.pi])
    assert np.allclose(flipped, [0.0, 1.0], rtol=0.0, atol=1e-15)


def test_rz_preserves_probabilities():
    before = circuit_probabilities(prepared_2q(()), PREP_2Q)
    assert before.min() > 0.01  # a state where a wrong phase would show
    for angles in ([1.234, 0.0], [0.0, 1.234]):
        rotated = circuit_probabilities(prepared_2q(("rz",)), PREP_2Q + angles)
        assert np.allclose(rotated, before, rtol=0.0, atol=1e-12)
    zeros = circuit_probabilities(CircuitSpec(2, (("rz",),), ()), [2.5, 0.0])
    assert np.allclose(zeros, [1, 0, 0, 0], rtol=0.0, atol=1e-15)


def test_rz_inverse_pair():
    back = run_statevector(prepared_2q(("rz", "rz")), PREP_2Q + [math.pi, -math.pi, 0.0, 0.0])
    assert np.allclose(back, run_statevector(prepared_2q(()), PREP_2Q), rtol=0.0, atol=1e-12)


def test_rotation_matrices_are_the_scalar_formulas_bit_for_bit():
    """``_rotations`` takes every matrix entry from numpy's complex exp:
    Rx(a) is [[c, -i s], [-i s, c]] with c, s = math.cos(a / 2) and
    math.sin(a / 2) bit for bit (off-diagonal real parts +0.0), and Rz(a) is
    diag(exp(-i a / 2), exp(i a / 2)) with the second the conjugate of the
    first.  Signed zeros, pi and huge angles included."""
    rng = np.random.default_rng(3)
    specials = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 1e-300, -1e-300, 1e300]
    angles = np.concatenate([[1.0], rng.uniform(-60.0, 60.0, 5000), specials])
    circuit = CircuitSpec(1, (("rx", "rz"),), ())
    _, _, rows, bounds, u = sim._rotations(circuit, np.stack([angles, angles], axis=1))
    # every row but row 0 (angle 1.0) differs at both slots, so rows are in input order
    assert rows.tolist() == list(range(len(angles))) * 2 and bounds == [0, len(angles), 2 * len(angles)]
    rx, rz = u[: len(angles)], u[len(angles) :]
    c = np.array([math.cos(a / 2.0) for a in angles])
    s = np.array([math.sin(a / 2.0) for a in angles])

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    for entry in (rx[:, 0, 0], rx[:, 1, 1]):
        assert np.array_equal(bits(entry.real), bits(c)) and not bits(entry.imag).any()
    for entry in (rx[:, 0, 1], rx[:, 1, 0]):
        assert np.array_equal(bits(entry.imag), bits(-s)) and not bits(entry.real).any()
    phase = np.array([complex(math.cos(a / 2.0), -math.sin(a / 2.0)) for a in angles])
    assert np.array_equal(bits(rz[:, 0, 0]), bits(phase))
    assert np.array_equal(bits(rz[:, 1, 1]), bits(phase.conj()))
    assert not bits(rz[:, 0, 1]).any() and not bits(rz[:, 1, 0]).any()


def test_rz_changes_interference():
    # oracle: multiply the 2x2 matrices directly; Rx(pi/2) then Rz(pi/2)
    # prepares |+> up to phase, on which a further Rx(pi/2) keeps both
    # outcomes even
    def rx(t):
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])

    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    circuit = CircuitSpec(1, (("rx", "rz", "rx"),), ())
    zero = np.array([1.0, 0.0])
    quarter = math.pi / 2
    expected_with_rz = rx(quarter) @ rz(quarter) @ rx(quarter) @ zero
    expected_without = rx(quarter) @ rx(quarter) @ zero
    with_rz = run_statevector(circuit, [quarter] * 3)
    without = run_statevector(circuit, [quarter, 0.0, quarter])
    assert np.allclose(with_rz, expected_with_rz, rtol=0.0, atol=1e-12)
    assert np.allclose(without, expected_without, rtol=0.0, atol=1e-12)
    assert not np.allclose(np.abs(expected_with_rz), np.abs(expected_without))


def test_cnot_basis_action():
    circuit = CircuitSpec(2, (("rx",), ()), (cnots(((0, 1),)),))
    ten = run_statevector(circuit, [math.pi, 0.0])  # -i|10> before the CNOT
    assert np.allclose(np.abs(ten), [0, 0, 0, 1], rtol=0.0, atol=1e-15)  # -> |11>
    assert np.array_equal(run_statevector(circuit, [0.0, 0.0]), [1, 0, 0, 0])


def test_cnot_involution(rng):
    # an entangled 4-qubit state, then CNOT 1->3 twice, as two sub-coverings
    twice = cnots(((1, 3),), ((1, 3),))
    layers = (("rx", "rz"), ("rx",), ())
    theta = rng.uniform(-7.0, 7.0, 12)
    matching = cnots(((0, 1), (2, 3)))
    state = run_statevector(CircuitSpec(4, layers, (matching, cnots())), theta)
    once = run_statevector(CircuitSpec(4, layers, (matching, cnots(((1, 3),)))), theta)
    back = run_statevector(CircuitSpec(4, layers, (matching, twice)), theta)
    assert not np.allclose(once, state)
    assert back.tobytes() == state.tobytes()


def test_gate_errors():
    with pytest.raises(ValueError):
        CircuitSpec(2, (("ry",),), ())  # unknown rotation
    with pytest.raises(ValueError):
        cnots(((1, 1),))  # control equals target
    with pytest.raises(ValueError):
        cnots(((-1, 0),))
    with pytest.raises(ValueError):
        CircuitSpec(2, (("rx",), ("rx",)), (cnots(((0, 5),)),))  # outside the register


def test_norm_preserved_and_unitary_inverse(rng):
    # 3 qubits entangled by CNOT 0->1 and 1->2, then the gate on qubit 1
    prep = rng.uniform(-7.0, 7.0, 6)
    entangle = (cnots(((0, 1),), ((1, 2),)),)
    state = run_statevector(CircuitSpec(3, (("rx", "rz"), ()), entangle), prep)
    for angle in rng.uniform(-2 * np.pi, 2 * np.pi, 5):
        for gate in ("rx", "rz"):
            once = CircuitSpec(3, (("rx", "rz"), (gate,)), entangle)
            out = run_statevector(once, [*prep, 0, angle, 0])
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12
            undo = CircuitSpec(3, (("rx", "rz"), (gate, gate)), entangle)
            undone = run_statevector(undo, [*prep, 0, 0, angle, -angle, 0, 0])
            assert np.allclose(undone, state, rtol=0.0, atol=1e-12)


def test_statevector_density_agreement():
    # 50 random circuits across the built-in densities, zero noise, 1e-12
    rng = np.random.default_rng(77)
    configs = [(0, 0), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    count = 0
    while count < 50:
        d_c, layers = configs[count % len(configs)]
        cfg = TrainingConfig(d_c=d_c, n_layers=layers)
        circuit = cfg.circuit()
        theta = rng.uniform(0, 2 * np.pi, circuit.parameter_count)
        sv = circuit_probabilities(circuit, theta)
        dm = density_populations(circuit, theta)
        assert np.abs(sv - dm).max() < 1e-12
        count += 1


def test_theta_length_checked():
    circuit = build_circuit(4, 2, 1)
    with pytest.raises(ValueError):
        run_statevector(circuit, np.zeros(circuit.parameter_count + 1))


def test_sampling_point_mass(rng):
    probs = np.zeros(16)
    probs[3] = 1.0
    counts = sample_histogram(probs, 100, rng)
    assert counts.shape == (16,) and counts.dtype == np.int64
    assert counts[3] == counts.sum() == 100


def test_sampling_determinism():
    probs = np.full(16, 1 / 16)
    a = sample_histogram(probs, 2048, np.random.default_rng(42))
    b = sample_histogram(probs, 2048, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sampling_errors():
    with pytest.raises(ValueError):
        sample_histogram(np.full(4, 0.25), 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_histogram(np.array([-0.5, 1.5]), 10, np.random.default_rng(0))
    for bad in ([0.5, np.nan], [0.5, np.inf], [-np.inf, 1.0], [0.0, 0.0]):
        # rejected here, not by numpy's multinomial, alone or in a batch
        with pytest.raises(ValueError, match="nonnegative with positive sum"):
            sample_histogram(np.array(bad), 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match="nonnegative with positive sum"):
            sim.sample_counts(np.array([[0.5, 0.5], bad]), 10, np.random.default_rng(0).spawn(2))
        with pytest.raises(ValueError, match="nonnegative with positive sum"):
            sim.sample_counts(np.array(bad), 10, np.random.default_rng(0).spawn(3))
    with pytest.raises(ValueError, match=r"need one distribution \(2\^n,\), got shape \(1, 2\)"):
        sample_histogram(np.full((1, 2), 0.5), 10, np.random.default_rng(0))


def test_sampling_chi_square():
    # uniform over 16 states at 2048 shots: the chi-square statistic should
    # fall below the 99.9th percentile of chi2(15) in at least 99% of seeds
    probs = np.full(16, 1 / 16)
    threshold = stats.chi2.ppf(0.999, df=15)
    expected = 2048 / 16
    below = 0
    n_seeds = 300
    for seed in range(n_seeds):
        counts = sample_histogram(probs, 2048, np.random.default_rng(seed))
        statistic = float(((counts - expected) ** 2 / expected).sum())
        below += statistic < threshold
    assert below >= 0.99 * n_seeds


def test_sampling_l1_convergence(rng):
    probs = rng.dirichlet(np.ones(16))
    counts = sample_histogram(probs, 10**6, rng)
    assert np.abs(counts / 10**6 - probs).sum() < 0.01


def test_zero_noise_density_matches_statevector():
    circuit, theta = random_circuit_theta(2, 2, 9)
    noiseless = circuit_probabilities(circuit, theta)
    assert circuit_probabilities(circuit, theta, NoiseModel()).tobytes() == noiseless.tobytes()
    noisy = density_populations(circuit, theta, NoiseModel())
    assert np.abs(noisy - noiseless).max() < 1e-12


def test_full_depolarizing_gives_uniform():
    for d_c, layers in ((2, 1), (4, 1)):
        circuit, theta = random_circuit_theta(d_c, layers, 13)
        probs = circuit_probabilities(circuit, theta, NoiseModel(p1=1.0, p2=1.0))
        assert np.abs(probs - 1 / 16).max() < 1e-10


def test_noisy_evolution_preserves_trace_and_hermiticity():
    circuit, theta = random_circuit_theta(4, 2, 21)
    noise = NoiseModel(p1=0.01, p2=0.05, t_damp=0.02)
    rho = density_matrix(evolve_density(circuit, theta, noise))
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert abs(np.trace(rho).imag) < 1e-10
    assert np.abs(rho - rho.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_noise_degrades_trained_circuit(trained_dc2_L2):
    config, record = trained_dc2_L2
    noise = NoiseModel(p1=0.002, p2=0.02, readout_flip_all=0.03)
    target = config.target()
    clean = kl_sampling_summary(
        target, circuit_probabilities(config.circuit(), record.final_theta), rng_stream(1, 0).spawn(10)
    )
    noisy = kl_sampling_summary(
        target,
        circuit_probabilities(config.circuit(), record.final_theta, noise),
        rng_stream(1, 1).spawn(10),
    )
    assert noisy.mean > clean.mean


def test_density_probabilities_with_readout():
    circuit, theta = random_circuit_theta(2, 1, 3)
    flipped = circuit_probabilities(circuit, theta, NoiseModel(readout_flip_all=0.5))
    assert np.abs(flipped - 1 / 16).max() < 1e-12  # symmetric half flip mixes fully
    assert circuit_probabilities(circuit, theta, None).shape == (16,)


# Seed ints around the word boundaries SeedSequence splits them at
seed_int = (
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1])
    | st.integers(0, 2**32 - 1)
    | st.integers(2**32, 2**64 - 1)
    | st.integers(2**64, 2**96)
)
deploy_key = st.tuples(st.integers(0, 2**31), st.just(TAG_DEPLOY), st.integers(0, 500), st.integers(0, 1))
SPAWN_COUNTS = [0, 1, 2, 10, 57, 113, 1025]


def assert_seeds_like_numpy(entropies, counts):
    """Each row of ``stream_seeds`` gives the state, and so the draws, of
    numpy's ``SeedSequence(entropy)`` stream for a count of None, else of
    child k of its ``Generator.spawn(n)``."""
    seeds = stream_seeds(entropies, counts)
    assert len(seeds) == len(entropies)
    probs = np.full(16, 1 / 16)
    for entropy, n, words in zip(entropies, counts, seeds):
        theirs = np.random.default_rng(np.random.SeedSequence(entropy))
        theirs = [theirs] if n is None else theirs.spawn(n)
        ours = generators(words)
        assert words.shape == (len(theirs), 4) and len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert a.bit_generator.state == b.bit_generator.state
            assert np.array_equal(a.multinomial(100, probs), b.multinomial(100, probs))


# An entropy is a seed's words, then those a spawn key adds to them, or a
# deploy key; several of them, of different widths, go to one call.
entropy = st.tuples(st.lists(seed_int, min_size=1, max_size=5), st.lists(seed_int, max_size=2)).map(
    lambda pair: tuple(pair[0] + pair[1])
) | deploy_key


@PROPERTY
@given(st.lists(st.tuples(entropy, st.none() | st.sampled_from(SPAWN_COUNTS)), min_size=1, max_size=3))
def test_spawn_matches_numpy_spawn(cases):
    entropies, counts = zip(*cases)
    assert_seeds_like_numpy(entropies, counts)


@pytest.mark.parametrize("n", SPAWN_COUNTS)
def test_spawn_matches_numpy_spawn_on_stream_keys(n):
    entropies = ((0, TAG_GRAD, 0), (7, TAG_DEPLOY, 100, 1), 12345, (0, TAG_GRAD, 2**32))
    assert_seeds_like_numpy(entropies, [n] * len(entropies))
    assert_seeds_like_numpy(entropies, [n, None, n, None])


def test_stream_seeds_refuse_a_negative_count():
    assert stream_seeds([], []) == []
    with pytest.raises(ValueError, match="cannot spawn -1 streams"):
        stream_seeds([(0, TAG_GRAD, 0), (0, TAG_GRAD, 1)], [3, -1])


@pytest.mark.parametrize("d_c", [2, 3, 4])
def test_sampled_gradient_matches_per_row_reference(d_c):
    config = TrainingConfig(d_c=d_c, n_layers=2, n_shots_train=512)
    circuit, target, kernel = config.circuit(), config.target(), config.kernel()
    theta = np.random.default_rng(d_c).uniform(0, 2 * np.pi, circuit.parameter_count)
    rows = shift_batch(theta)
    # one simulation and one histogram per row, from numpy's own spawn
    streams = rng_stream(5, TAG_GRAD, d_c).spawn(len(rows))
    q = [
        sample_histogram(circuit_probabilities(circuit, row), 512, stream) / 512
        for row, stream in zip(rows, streams)
    ]
    weight = kernel.matrix @ (q[0] - target.probs)
    expected = np.array([(plus - minus) @ weight for plus, minus in zip(q[1::2], q[2::2])])
    got = sampled_gradient(
        shift_probabilities(circuit, theta),
        target,
        kernel,
        512,
        rng_stream(5, TAG_GRAD, d_c).spawn(len(rows)),
    )
    assert got.tobytes() == expected.tobytes()


_PAULIS = [
    np.array(m, dtype=complex)
    for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
]


def kron_superoperators(p1, p2, t_damp):
    """The density path's fixed matrices with one ``np.kron`` per operator
    and Python's ``sum`` over each Kraus set."""
    f2, t2 = (sim._regroup(np.kron(m, m)) for m in (sim._F, sim._T))

    def superoperator(kraus):
        return sum(np.kron(k, k.conj()) for k in kraus)

    def coordinates(s):
        f, t = (sim._F, sim._T) if len(s) == 4 else (f2, t2)
        return np.ascontiguousarray((f @ s @ t).real)

    paulis = [np.kron(a, b) for a in _PAULIS for b in _PAULIS]
    depolarize2 = [math.sqrt(1.0 - p2 * 15 / 16) * paulis[0]]
    depolarize2 += [math.sqrt(p2 / 16) * pauli for pauli in paulis[1:]]
    damp = amplitude_damping_kraus(t_damp)
    damp_pair = superoperator([np.kron(a, b) for a in damp for b in damp])
    edge = damp_pair @ superoperator(depolarize2) @ np.kron(sim._CNOT, sim._CNOT)
    depolarize = superoperator(depolarizing_kraus(p1, 1))
    return coordinates(depolarize), sim._regroup(coordinates(edge)), coordinates(superoperator(damp))


def test_superoperators_match_np_kron_bit_for_bit():
    strengths = [0.0, 1.0, *np.random.default_rng(31).uniform(0, 1, 12), 1e-9]
    rng = np.random.default_rng(32)
    for k in range(40):
        triple = tuple(float(rng.choice(strengths)) for _ in range(3)) if k > 1 else (float(k),) * 3
        got = sim._superoperators(*triple)
        expected = kron_superoperators(*triple)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in expected], triple
    for p in strengths:
        kraus = depolarizing_kraus(p, 2)
        reference = [math.sqrt(1.0 - p * 15 / 16) * np.kron(_PAULIS[0], _PAULIS[0])]
        reference += [math.sqrt(p / 16) * np.kron(a, b) for a in _PAULIS for b in _PAULIS][1:]
        assert [k.tobytes() for k in kraus] == [k.tobytes() for k in reference]


def test_broadcast_kron_matches_np_kron_bit_for_bit():
    rng = np.random.default_rng(33)
    u = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
    v = rng.normal(size=(3, 1, 2, 3)) + 1j * rng.normal(size=(3, 1, 2, 3))
    got = broadcast_kron(u, u.conj())
    assert got.tobytes() == np.stack([np.kron(a, a.conj()) for a in u]).tobytes()
    got = broadcast_kron(v, u)
    assert got.shape == (3, 7, 4, 6)
    assert got.tobytes() == np.stack([[np.kron(a[0], b) for b in u] for a in v]).tobytes()
