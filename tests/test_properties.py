"""Property tests of the statevector and density-matrix paths and the noise
channels over random channel strengths, circuit shapes and angles."""

import numpy as np
from hypothesis import given, settings, strategies as st

from bornbench import (
    NoiseModel,
    TrainingConfig,
    amplitude_damping_kraus,
    depolarizing_kraus,
    evolve_density,
    run_statevector,
)
from test_engine import reference_amplitudes, reference_density

# reproducible from run to run, and no example database left on disk
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

SHAPES = [(0, 0), (0, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]

# probabilities on [0, 1], with both endpoints drawn often
probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def noisy_circuits(draw):
    d_c, layers = draw(st.sampled_from(SHAPES))
    circuit = TrainingConfig(d_c=d_c, n_layers=layers).circuit()
    noise = NoiseModel(p1=draw(probability), p2=draw(probability), t_damp=draw(probability))
    n_params = circuit.parameter_count
    angle = st.floats(-7.0, 7.0)
    mixed = st.sampled_from([0.0, np.pi / 2.0]) | angle
    rows = [
        np.zeros(n_params),
        np.full(n_params, np.pi / 2.0),
        draw(st.lists(angle, min_size=n_params, max_size=n_params)),
        draw(st.lists(mixed, min_size=n_params, max_size=n_params)),
    ]
    return circuit, noise, np.array(rows)


@PROPERTY
@given(noisy_circuits())
def test_density_matrices_match_reference_and_are_states(case):
    circuit, noise, thetas = case
    states = evolve_density(circuit, thetas, noise).entries
    for rho, theta in zip(states, thetas):
        assert rho.tobytes() == evolve_density(circuit, theta, noise).entries.tobytes()
        # fused superoperators round differently from the per-gate walk
        assert np.max(np.abs(rho - reference_density(circuit, theta, noise))) <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.allclose(rho, rho.conj().T, rtol=0.0, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


@PROPERTY
@given(noisy_circuits())
def test_statevectors_match_reference_and_are_normalised(case):
    circuit, _, thetas = case  # the same shapes and angle rows, noise unused
    states = run_statevector(circuit, thetas).amplitudes
    for psi, theta in zip(states, thetas):
        assert psi.tobytes() == reference_amplitudes(circuit, theta).tobytes()
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def _completeness_error(kraus) -> float:
    total = sum(k.conj().T @ k for k in kraus)
    return float(np.max(np.abs(total - np.eye(len(total)))))


@PROPERTY
@given(probability)
def test_kraus_sets_are_complete(p):
    assert _completeness_error(depolarizing_kraus(p, 1)) <= 1e-12
    assert _completeness_error(depolarizing_kraus(p, 2)) <= 1e-12
    assert _completeness_error(amplitude_damping_kraus(p)) <= 1e-12


@PROPERTY
@given(
    probability,
    st.dictionaries(st.integers(0, 5), probability, max_size=6),
    st.integers(1, 6),
)
def test_confusion_matrices_are_row_stochastic(flip_all, flips, n_qubits):
    noise = NoiseModel(readout_flip_all=flip_all, readout_flip=flips)
    mats = noise.confusion_matrices(n_qubits)
    if mats is None:
        assert not noise.has_readout_error()
        return
    assert len(mats) == n_qubits
    for m in mats:
        assert m.shape == (2, 2) and np.all(m >= 0.0)
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12
