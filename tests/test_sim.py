import math

import numpy as np
import pytest
from scipy import stats

from bornbench import (
    CircuitSpec,
    EntanglerLayer,
    NoiseModel,
    TrainingConfig,
    build_circuit,
    circuit_probabilities,
    evolve_density,
    kl_sampling_summary,
    rng_stream,
    run_statevector,
    sample_histogram,
)


def random_circuit_theta(d_c, layers, seed):
    circuit = build_circuit(4, d_c, layers)
    rng = np.random.default_rng(seed)
    return circuit, rng.uniform(0, 2 * np.pi, circuit.parameter_count)


def density_populations(circuit, theta, noise=None):
    """The diagonal of the circuit's output density matrix."""
    return np.diagonal(evolve_density(circuit, theta, noise)).real


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
    for bad in (np.nan, np.inf):  # rejected here, not by numpy's multinomial
        with pytest.raises(ValueError, match="nonnegative with positive sum"):
            sample_histogram(np.array([0.5, bad]), 10, np.random.default_rng(0))


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
    rho = evolve_density(circuit, theta, noise)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert abs(np.trace(rho).imag) < 1e-10
    assert np.abs(rho - rho.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_noise_degrades_trained_circuit(trained_dc2_L2):
    config, record = trained_dc2_L2
    noise = NoiseModel(p1=0.002, p2=0.02, readout_flip_all=0.03)
    target = config.target()
    clean = kl_sampling_summary(
        target, circuit_probabilities(config.circuit(), record.final_theta), rng_stream(1, 0)
    )
    noisy = kl_sampling_summary(
        target, circuit_probabilities(config.circuit(), record.final_theta, noise), rng_stream(1, 1)
    )
    assert noisy.mean > clean.mean


def test_density_probabilities_with_readout():
    circuit, theta = random_circuit_theta(2, 1, 3)
    flipped = circuit_probabilities(circuit, theta, NoiseModel(readout_flip_all=0.5))
    assert np.abs(flipped - 1 / 16).max() < 1e-12  # symmetric half flip mixes fully
    assert circuit_probabilities(circuit, theta, None).shape == (16,)
