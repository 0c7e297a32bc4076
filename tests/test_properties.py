"""Property tests of the statevector and density-matrix paths and the noise
channels over random channel strengths, circuit shapes and angles, and of the
config text form over random configs."""

import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bornbench import (
    NoiseModel,
    TrainingConfig,
    amplitude_damping_kraus,
    depolarizing_kraus,
    evolve_density,
    run_statevector,
)
from bornbench import sim
from bornbench.kv import format_kv, parse_kv_text
from bornbench.mmd import DISTANCE_KINDS
from bornbench.runio import config_from_items
from conftest import density_matrix, on_qubit_pairs
from test_engine import reference_amplitudes, reference_density
from test_mmd import is_indefinite, three_axis_kernel

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
    for coords, theta in zip(states, thetas):
        assert coords.tobytes() == evolve_density(circuit, theta, noise).tobytes()
        rho = density_matrix(coords)
        # fused superoperators round differently from the per-gate walk
        assert np.max(np.abs(rho - reference_density(circuit, theta, noise))) <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.allclose(rho, rho.conj().T, rtol=0.0, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


@PROPERTY
@given(noisy_circuits(), st.integers(0, 2**32 - 1))
def test_real_coordinates_drop_only_rounding(case, seed):
    """Every transfer matrix F S T the density path builds is real to 1e-15
    before its imaginary part is dropped; a density matrix's coordinates are
    real, hold its populations exactly on their diagonal and map back to it
    within 1e-15."""
    circuit, noise, thetas = case
    built, in_coordinates = [], sim._in_coordinates

    def recording(s):
        built.append((s, in_coordinates(s)))
        return built[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_in_coordinates", recording)
        sim._superoperators.cache_clear()
        evolve_density(circuit, thetas, noise)
    assert [s.shape[-1] for s, _ in built] == [4, 16, 4, 4]  # 3 channels, the rotations
    for s, real in built:
        f, t = (sim._F, sim._T) if s.shape[-1] == 4 else (sim._F2, sim._T2)
        product = f @ s @ t
        assert np.max(np.abs(product.imag)) <= 1e-15
        assert real.dtype == np.float64 and np.array_equal(real, product.real)

    rng = np.random.default_rng(seed)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = a @ a.conj().T / np.sum(np.abs(a) ** 2)
    coords = on_qubit_pairs(rho, sim._F)
    assert np.max(np.abs(coords.imag)) <= 1e-15
    assert np.array_equal(np.diagonal(coords.real), np.diagonal(rho).real)
    assert np.max(np.abs(density_matrix(coords.real) - rho)) <= 1e-15


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
        assert flip_all == 0.0 and not any(flips.values())
        return
    assert len(mats) == n_qubits
    for m in mats:
        assert m.shape == (2, 2) and np.all(m >= 0.0)
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def _sigmas(sigma_is_variance: bool):
    """Bandwidths whose kernel denominator, 2 sigma or 2 sigma^2, is a
    positive finite float, drawn up to one of three bounds on the variance
    alike: 5e14, below which no kernel is all ones; 1e20, beyond which the
    kernel is, and which is refused; and the largest finite one."""
    if sigma_is_variance:
        bounds = (5e14, 1e20, sys.float_info.max / 2.0)
        return st.one_of(_floats(min_value=0.0, max_value=b, exclude_min=True) for b in bounds)
    return st.one_of(_floats(min_value=1e-150, max_value=b) for b in (math.sqrt(5e14), 1e10, 1e150))


def proper_or_refused(**fields):
    """The config of ``fields``, or None when it is refused for a label of
    ``.`` or ``..``, which names no directory of its own, for a kernel whose
    every entry is 1.0, as ``three_axis_kernel`` must then be, or for an
    indefinite Hamming kernel, which ``is_indefinite`` (an ``eigvalsh``
    check) must then find; a kernel refusal names sigma."""
    kernel = (4, fields["sigma"], fields["kernel_distance"])
    if fields["label"] in (".", ".."):
        refusal = "^label must name one directory"
    elif np.all(three_axis_kernel(*kernel, fields["sigma_is_variance"]) == 1.0):
        refusal = "^sigma = .* gives a kernel whose every entry is 1.0"
    elif kernel[2] == "hamming-squared" and is_indefinite(*kernel, fields["sigma_is_variance"]):
        refusal = "^sigma = .* with kernel_distance = hamming-squared"
    else:
        return TrainingConfig(**fields)
    with pytest.raises(ValueError, match=refusal):
        TrainingConfig(**fields)
    return None


@st.composite
def run_configs(draw):
    """A config, or None for one refused as ``proper_or_refused`` says."""
    d_c, layers = draw(st.sampled_from(SHAPES))
    n_qubits = 4
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
    edges = st.lists(edge, min_size=3, max_size=3)
    return proper_or_refused(
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
@example(TrainingConfig(d_c=2, n_layers=2, sigma=1e17))  # a wide kernel that is not yet all ones, written '1e+17'
def test_config_text_form_round_trips(config):
    if config is None:  # refused, as run_configs checked
        return
    items = config.kv_items()
    keys = {key for key, _ in items}
    # every field has a key, so a field of a type the codec lacks fails here
    optional = {"noise", "dc3_edges"}
    assert {f.name for f in fields(TrainingConfig)} - optional <= keys
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
    [1e-150, 1e150] is accepted unless its Hamming kernel is indefinite or
    every entry of its kernel is 1.0, one nearer the ends of the float range
    may be rejected for its kernel denominator.  A rejection is a ValueError
    naming the first bad key (sigma and kernel_distance for an indefinite
    kernel); an accepted config has a proper kernel, positive semi-definite
    and not all ones."""
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
        elif "kernel_distance" in message:
            assert message.startswith(f"sigma = {sigma!r} with kernel_distance = hamming-squared")
            assert is_indefinite(4, sigma, distance, sigma_is_variance)
        elif "every entry is 1.0" in message:
            assert message.startswith(f"sigma = {sigma!r} gives a kernel")
            assert np.all(three_axis_kernel(4, sigma, distance, sigma_is_variance) == 1.0)
        else:
            assert message.startswith("sigma")
            assert not (_finite_positive(sigma) and 1e-150 <= sigma <= 1e150)
        return
    assert not bad and _finite_positive(sigma)
    matrix = config.kernel().matrix
    assert np.all(np.isfinite(matrix)) and np.all((matrix >= 0.0) & (matrix <= 1.0))
    assert np.all(np.diag(matrix) == 1.0) and np.array_equal(matrix, matrix.T)
    assert not np.all(three_axis_kernel(4, sigma, distance, sigma_is_variance) == 1.0)
    if distance == "hamming-squared":
        assert not is_indefinite(4, sigma, distance, sigma_is_variance)
