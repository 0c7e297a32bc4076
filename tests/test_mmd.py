import itertools
import math

import numpy as np
import pytest

from bornbench import (
    KernelSpec,
    TrainingConfig,
    circuit_probabilities,
    mmd_gradient,
    mmd_loss,
    mmd_loss_exact,
    sample_histogram,
)


@pytest.fixture(scope="module")
def kernel4():
    return KernelSpec(4, sigma=0.1)


def test_kernel_diagonal_and_symmetry(kernel4):
    for x in range(16):
        assert kernel4.matrix[x, x] == 1.0
    assert np.array_equal(kernel4.matrix, kernel4.matrix.T)
    # distant pairs underflow to 0.0 in float64; near-diagonal entries stay positive
    assert np.all(kernel4.matrix >= 0.0)
    assert np.all(kernel4.matrix <= 1.0)
    assert np.all(np.diag(kernel4.matrix, k=1) > 0.0)


def test_kernel_value_integer_distance(kernel4):
    # direct evaluation: d = (3-4)^2 = 1, sigma treated as variance
    assert kernel4.matrix[3, 4] == pytest.approx(math.exp(-1 / 0.2), rel=1e-12)


def test_kernel_hamming_variant():
    spec = KernelSpec(4, sigma=0.1, distance="hamming-squared")
    # 0b0000 vs 0b0011 differ in 2 bits: exp(-4 / 0.2)
    assert spec.matrix[0b0000, 0b0011] == pytest.approx(math.exp(-20.0))


def three_axis_kernel(n, sigma, distance, sigma_is_variance):
    """The kernel as built before the distances were accumulated bit by bit:
    hamming distances from a (2^n, 2^n, n) array of bit comparisons."""
    denom = 2.0 * sigma if sigma_is_variance else 2.0 * sigma**2
    index = np.arange(2**n)
    if distance == "integer-squared":
        d = (index[:, None] - index[None, :]).astype(float) ** 2
    else:
        bits = (index[:, None] >> np.arange(n)[None, :]) & 1
        d = (bits[:, None, :] != bits[None, :, :]).sum(axis=2).astype(float) ** 2
    with np.errstate(over="ignore"):
        return np.exp(-d / denom)


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_matrix_is_byte_equal_to_the_three_axis_construction(n):
    for distance, sigma, as_variance in itertools.product(
        ("integer-squared", "hamming-squared"), (1e-3, 0.1, 2.5, 1e6), (True, False)
    ):
        spec = KernelSpec(n, sigma, distance, as_variance)
        expected = three_axis_kernel(n, sigma, distance, as_variance)
        assert spec.matrix.tobytes() == expected.tobytes(), (distance, sigma, as_variance)


def test_kernel_sigma_as_std():
    spec = KernelSpec(4, sigma=0.5, sigma_is_variance=False)
    assert spec.matrix[0, 1] == pytest.approx(math.exp(-1 / (2 * 0.25)))


def test_kernel_validation():
    with pytest.raises(ValueError):
        KernelSpec(4, sigma=0.0)
    with pytest.raises(ValueError):
        KernelSpec(4, distance="euclidean")
    with pytest.raises(ValueError):
        KernelSpec(14)


def test_exact_loss_zero_at_target(target22, kernel4):
    assert mmd_loss_exact(target22.probs, target22, kernel4) == pytest.approx(0.0, abs=1e-12)


def test_exact_loss_nonnegative(target22, kernel4, rng):
    for _ in range(20):
        q = rng.dirichlet(np.ones(16))
        assert mmd_loss_exact(q, target22, kernel4) >= 0.0


def test_sampled_loss_unbiased(target22, kernel4):
    # q drawn from uniform-16; the exact-distribution loss is the oracle
    uniform = np.full(16, 1 / 16)
    exact = mmd_loss_exact(uniform, target22, kernel4)
    losses = []
    for seed in range(300):
        hist = sample_histogram(uniform, 1024, np.random.default_rng(seed))
        losses.append(mmd_loss(hist, target22, kernel4))
    losses = np.asarray(losses)
    sem = losses.std(ddof=1) / math.sqrt(len(losses))
    assert abs(losses.mean() - exact) < 3.0 * sem
    # a single draw sits within 3 sample standard deviations of the oracle
    assert abs(losses[0] - exact) < 3.0 * losses.std(ddof=1)


def test_sampled_loss_needs_two_shots(target22, kernel4):
    with pytest.raises(ValueError):
        mmd_loss(np.eye(16, dtype=np.int64)[3], target22, kernel4)


def finite_difference_gradient(circuit, theta, target, kernel, h=1e-5):
    grad = np.empty_like(theta)
    for i in range(len(theta)):
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        grad[i] = (
            mmd_loss_exact(circuit_probabilities(circuit, plus), target, kernel)
            - mmd_loss_exact(circuit_probabilities(circuit, minus), target, kernel)
        ) / (2 * h)
    return grad


@pytest.mark.parametrize("d_c,layers", [(0, 1), (0, 2), (2, 1), (2, 2), (3, 1), (4, 2)])
def test_exact_gradient_matches_finite_differences(d_c, layers):
    config = TrainingConfig(d_c=d_c, n_layers=layers)
    circuit, kernel, target = config.circuit(), config.kernel(), config.target()
    rng = np.random.default_rng(d_c * 10 + layers)
    for _ in range(3):
        theta = rng.uniform(0, 2 * np.pi, circuit.parameter_count)
        exact = mmd_gradient(circuit, theta, target, kernel, mode="exact")
        fd = finite_difference_gradient(circuit, theta, target, kernel)
        assert np.abs(exact - fd).max() < 1e-6


def test_gradient_zero_at_product_stationary_point():
    # uniform per-qubit marginals are a stationary point of the non-entangling
    # ansatz: the target and kernel are invariant under a global bit flip, so
    # the loss is symmetric about the uniform product distribution
    config = TrainingConfig(d_c=0, n_layers=0)
    circuit, kernel, target = config.circuit(), config.kernel(), config.target()
    theta = np.zeros(circuit.parameter_count)
    theta[[0, 2, 4, 6]] = math.pi / 2  # first-layer Rx(pi/2) per qubit, everything else 0
    probs = circuit_probabilities(circuit, theta)
    assert np.allclose(probs, 1 / 16, atol=1e-12)
    grad = mmd_gradient(circuit, theta, target, kernel, mode="exact")
    assert np.linalg.norm(grad) < 1e-8


def test_sampled_gradient_unbiased(target22):
    config = TrainingConfig(d_c=2, n_layers=1)
    circuit, kernel = config.circuit(), config.kernel()
    rng = np.random.default_rng(123)
    theta = rng.uniform(0, 2 * np.pi, circuit.parameter_count)
    exact = mmd_gradient(circuit, theta, target22, kernel, mode="exact")
    draws = np.array(
        [
            mmd_gradient(
                circuit,
                theta,
                target22,
                kernel,
                mode="sampled",
                n_shots=512,
                rng=np.random.default_rng(1000 + s),
            )
            for s in range(200)
        ]
    )
    sem = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - exact) < 3.0 * sem)


def test_sampled_gradient_deterministic(target22):
    config = TrainingConfig(d_c=2, n_layers=1)
    circuit, kernel = config.circuit(), config.kernel()
    theta = np.linspace(0, 2 * np.pi, circuit.parameter_count)
    a = mmd_gradient(
        circuit, theta, target22, kernel, mode="sampled", n_shots=256,
        rng=np.random.default_rng(5),
    )
    b = mmd_gradient(
        circuit, theta, target22, kernel, mode="sampled", n_shots=256,
        rng=np.random.default_rng(5),
    )
    assert np.array_equal(a, b)


def test_gradient_mode_validation(target22, kernel4):
    circuit = TrainingConfig(d_c=2, n_layers=1).circuit()
    theta = np.zeros(circuit.parameter_count)
    with pytest.raises(ValueError):
        mmd_gradient(circuit, theta, target22, kernel4, mode="spsa")
    with pytest.raises(ValueError):
        mmd_gradient(circuit, theta, target22, kernel4, mode="sampled")  # no shots/rng


def test_loss_periodic_in_2pi(target22, kernel4, rng):
    config = TrainingConfig(d_c=2, n_layers=2)
    circuit = config.circuit()
    theta = rng.uniform(0, 2 * np.pi, circuit.parameter_count)
    base = mmd_loss_exact(circuit_probabilities(circuit, theta), target22, kernel4)
    for i in (0, 7, 21):
        shifted = theta.copy()
        shifted[i] += 2 * np.pi
        value = mmd_loss_exact(circuit_probabilities(circuit, shifted), target22, kernel4)
        assert value == pytest.approx(base, abs=1e-12)
