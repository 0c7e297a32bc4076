import numpy as np
import pytest

from bornbench import (
    NoiseModel,
    TrainingConfig,
    amplitude_damping_kraus,
    apply_readout,
    circuit_probabilities,
    depolarizing_kraus,
    load_noise,
)
from bornbench.noise import noise_from_items


def kraus_completeness_defect(ops):
    dim = ops[0].shape[0]
    total = sum(k.conj().T @ k for k in ops)
    return np.abs(total - np.eye(dim)).max()


def test_depolarizing_zero_is_identity():
    ops = depolarizing_kraus(0.0, 1)
    assert np.allclose(ops[0], np.eye(2))
    for k in ops[1:]:
        assert np.allclose(k, 0.0)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.37, 1.0])
@pytest.mark.parametrize("n_targets", [1, 2])
def test_depolarizing_completeness(p, n_targets):
    assert kraus_completeness_defect(depolarizing_kraus(p, n_targets)) < 1e-12


def test_depolarizing_full_mixes(rng):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps /= np.linalg.norm(amps)
    rho = np.outer(amps, amps.conj())
    out = sum(k @ rho @ k.conj().T for k in depolarizing_kraus(1.0, 1))
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)


def test_depolarizing_validation():
    with pytest.raises(ValueError):
        depolarizing_kraus(-0.1, 1)
    with pytest.raises(ValueError):
        depolarizing_kraus(1.5, 2)
    with pytest.raises(ValueError):
        depolarizing_kraus(0.5, 3)


def test_amplitude_damping():
    ops = amplitude_damping_kraus(0.3)
    assert kraus_completeness_defect(ops) < 1e-12
    excited = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    out = sum(k @ excited @ k.conj().T for k in amplitude_damping_kraus(1.0))
    assert np.allclose(out, [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        amplitude_damping_kraus(1.2)


def test_readout_identity():
    probs = np.linspace(0.0, 1.0, 16)
    probs /= probs.sum()
    identity = [np.eye(2)] * 4
    assert np.allclose(apply_readout(probs, identity), probs)


def test_readout_half_flip_uniform():
    probs = np.zeros(16)
    probs[5] = 1.0
    half = [np.full((2, 2), 0.5)] * 4
    assert np.allclose(apply_readout(probs, half), 1 / 16)


def test_readout_product_evaluation():
    # flip 0.03 per qubit on the |0000> point mass: P(report 0000) = 0.97^4
    probs = np.zeros(16)
    probs[0] = 1.0
    flip = [np.array([[0.97, 0.03], [0.03, 0.97]])] * 4
    out = apply_readout(probs, flip)
    assert out[0] == pytest.approx(0.97**4, abs=1e-12)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    # single bit-flip outcomes carry 0.97^3 * 0.03 each
    for outcome in (0b1000, 0b0100, 0b0010, 0b0001):
        assert out[outcome] == pytest.approx(0.97**3 * 0.03, abs=1e-12)


def test_readout_validation():
    probs = np.full(4, 0.25)
    with pytest.raises(ValueError):
        apply_readout(probs, [np.array([[0.9, 0.2], [0.1, 0.9]])] * 2)  # rows not stochastic
    with pytest.raises(ValueError):
        apply_readout(probs, [np.eye(2)] * 3)  # wrong register size


def test_noise_model_validation():
    with pytest.raises(ValueError, match="p2"):
        NoiseModel(p2=1.5)
    with pytest.raises(ValueError, match="p1"):
        NoiseModel(p1=-0.2)
    with pytest.raises(ValueError, match="readout_flip_q3"):
        NoiseModel(readout_flip={3: 2.0})
    with pytest.raises(ValueError, match="t_damp"):
        NoiseModel(t_damp=-1.0)


def test_noise_model_confusion_matrices():
    model = NoiseModel(readout_flip_all=0.03, readout_flip={1: 0.05})
    mats = model.confusion_matrices(3)
    assert np.allclose(mats[0], [[0.97, 0.03], [0.03, 0.97]])
    assert np.allclose(mats[1], [[0.95, 0.05], [0.05, 0.95]])
    assert NoiseModel().confusion_matrices(3) is None
    assert NoiseModel().is_noiseless()
    assert not model.is_noiseless()


def test_load_noise_profiles(tmp_path):
    empty = tmp_path / "empty.profile"
    empty.write_text("# nothing here\n")
    assert load_noise(empty).is_noiseless()

    profile = tmp_path / "moderate.profile"
    profile.write_text("p1 = 0.002\np2 = 0.02\nreadout_flip_all = 0.03\nt_damp = 0.01\n")
    model = load_noise(profile)
    assert model == NoiseModel(p1=0.002, p2=0.02, readout_flip_all=0.03, t_damp=0.01)

    bad_range = tmp_path / "bad.profile"
    bad_range.write_text("p2 = 1.5\n")
    with pytest.raises(ValueError, match="p2"):
        load_noise(bad_range)

    unknown = tmp_path / "unknown.profile"
    unknown.write_text("gate_error = 0.1\n")
    with pytest.raises(ValueError, match="gate_error"):
        load_noise(unknown)


def test_noise_kv_roundtrip():
    model = NoiseModel(p1=0.002, p2=0.02, readout_flip_all=0.03, readout_flip={2: 0.06}, t_damp=0.01)
    assert noise_from_items(dict(model.kv_items())) == model


def test_simulator_rejects_readout_flip_outside_register():
    circuit = TrainingConfig(d_c=2, n_layers=1).circuit()
    theta = np.zeros(circuit.parameter_count)
    with pytest.raises(ValueError, match="no qubit 9 in a 4-qubit register"):
        circuit_probabilities(circuit, theta, NoiseModel(readout_flip={9: 0.4}))
    flip3 = circuit_probabilities(circuit, theta, NoiseModel(readout_flip={3: 0.4}))
    assert flip3[1] == pytest.approx(0.4, abs=1e-12)  # |0000> read out as 0001
