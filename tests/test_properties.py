"""Property tests of the statevector and density-matrix paths and the noise
channels over random channel strengths, circuit shapes and angles, and of the
config text form over random configs."""

import math
import sys
from dataclasses import fields

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
from bornbench.kv import format_kv, parse_kv_text
from bornbench.mmd import DISTANCE_KINDS
from bornbench.runio import config_from_items
from bornbench.training import RunConfig
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
    states = evolve_density(circuit, thetas, noise)
    for rho, theta in zip(states, thetas):
        assert rho.tobytes() == evolve_density(circuit, theta, noise).tobytes()
        # fused superoperators round differently from the per-gate walk
        assert np.max(np.abs(rho - reference_density(circuit, theta, noise))) <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.allclose(rho, rho.conj().T, rtol=0.0, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


@PROPERTY
@given(noisy_circuits())
def test_statevectors_match_reference_and_are_normalised(case):
    circuit, _, thetas = case  # the same shapes and angle rows, noise unused
    states = run_statevector(circuit, thetas)
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


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def _sigmas(sigma_is_variance: bool):
    """Bandwidths whose kernel denominator, 2 sigma or 2 sigma^2, is a
    positive finite float."""
    if sigma_is_variance:
        return _floats(min_value=0.0, max_value=sys.float_info.max / 2.0, exclude_min=True)
    return _floats(min_value=1e-150, max_value=1e150)


@st.composite
def run_configs(draw):
    d_c, layers = draw(st.sampled_from(SHAPES))
    registers = [(2, 2), (1, 4), (4, 1)]
    if d_c == 0:  # the product circuit takes any register
        registers += [(2, 3), (1, 1)]
    rows, cols = draw(st.sampled_from(registers))
    n_qubits = rows * cols
    pixel = st.integers(0, n_qubits - 1)
    noise = NoiseModel(
        p1=draw(probability),
        p2=draw(probability),
        readout_flip_all=draw(probability),
        readout_flip=draw(st.dictionaries(pixel, probability, max_size=n_qubits)),
        t_damp=draw(probability),
    )
    positive = st.integers(1, 10**6)
    sigma_is_variance = draw(st.booleans())
    # the layer of a d_c = 3 circuit takes no self-loop
    edge = st.tuples(pixel, pixel).filter(lambda e: e[0] != e[1])
    edges = st.lists(edge, min_size=3, max_size=3) if n_qubits > 1 else st.nothing()
    return RunConfig(
        d_c=d_c,
        n_layers=draw(st.integers(layers, 5)),
        n_shots_train=draw(st.integers(2, 10**6)),
        n_steps=draw(st.integers(0, 10**6)),
        alpha=draw(_floats(min_value=0.0, exclude_min=True)),
        beta1=draw(_floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        beta2=draw(_floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        epsilon=draw(_floats(min_value=0.0, exclude_min=True)),
        sigma=draw(_sigmas(sigma_is_variance)),
        kernel_distance=draw(st.sampled_from(DISTANCE_KINDS)),
        sigma_is_variance=sigma_is_variance,
        seed=draw(st.integers(0, 2**63)),
        n_rows=rows,
        n_cols=cols,
        kl_shots=draw(positive),
        kl_repeats=draw(st.integers(2, 100)),
        metric_every=draw(positive),
        checkpoint_every=draw(positive),
        qbas_enabled=draw(st.booleans()),
        qbas_shots=draw(positive),
        qbas_repeats=draw(positive),
        qbas_sample_size=draw(positive),
        qbas_resamples=draw(positive),
        gradient_mode=draw(st.sampled_from(["sampled", "exact"])),
        dc3_edges=draw(st.none() | edges),
        noise=draw(st.none() | st.just(noise)),
        label=draw(st.text("abcxyz019-_.", min_size=1, max_size=12)),
    )


@PROPERTY
@given(run_configs())
def test_config_text_form_round_trips(config):
    items = config.kv_items()
    keys = {key for key, _ in items}
    # every field has a key, so a field of a type the codec lacks fails here
    optional = {"noise", "dc3_edges"}
    assert {f.name for f in fields(RunConfig)} - optional <= keys
    assert ("dc3_edges" in keys) == (config.dc3_edges is not None)
    assert any(key.startswith("noise_") for key in keys) == (config.noise is not None)
    for rebuilt in (
        config_from_items(dict(items)),
        config_from_items(parse_kv_text(format_kv(items))),
    ):
        assert rebuilt == config
        assert rebuilt.digest() == config.digest()


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


@settings(PROPERTY, max_examples=300)
@given(st.floats(), st.floats(), st.floats(), st.booleans(), st.sampled_from(DISTANCE_KINDS))
def test_float_fields_fail_at_config_time_or_give_a_proper_kernel(
    alpha, epsilon, sigma, sigma_is_variance, distance
):
    """alpha, epsilon and sigma must be finite and positive; a sigma in
    [1e-150, 1e150] is always accepted, one nearer the ends of the float range
    may be rejected for its kernel denominator.  A rejection is a ValueError
    naming the first bad key; an accepted config has a proper kernel."""
    bad = [k for k, v in (("alpha", alpha), ("epsilon", epsilon)) if not _finite_positive(v)]
    try:
        config = TrainingConfig(
            d_c=0,
            n_layers=0,
            alpha=alpha,
            epsilon=epsilon,
            sigma=sigma,
            sigma_is_variance=sigma_is_variance,
            kernel_distance=distance,
        )
    except ValueError as exc:
        message = str(exc)
        if bad:
            assert message.startswith(f"{bad[0]} must be finite and positive")
        else:
            assert message.startswith("sigma")
            assert not (_finite_positive(sigma) and 1e-150 <= sigma <= 1e150)
        return
    assert not bad and _finite_positive(sigma)
    matrix = config.kernel().matrix
    assert np.all(np.isfinite(matrix)) and np.all((matrix >= 0.0) & (matrix <= 1.0))
    assert np.all(np.diag(matrix) == 1.0) and np.array_equal(matrix, matrix.T)
