import itertools
import math
import re

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
    shift_probabilities,
)
from bornbench.mmd import DISTANCE_KINDS, PSD_TOLERANCE, walsh_hadamard
from bornbench.sim import sample_counts


def sampled_gradient(q, p, spec, n_shots, streams):
    """The sampled gradient as the training loop takes it: ``mmd_gradient``
    of each row's histogram over its shot count, row k drawn from
    ``streams[k]``."""
    return mmd_gradient(sample_counts(q, n_shots, streams) / n_shots, p, spec)


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


def three_axis_kernel(n, sigma, distance, sigma_is_variance=True):
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


def is_indefinite(n, sigma, distance, sigma_is_variance=True):
    """Whether ``eigvalsh`` finds the kernel's smallest eigenvalue below
    -PSD_TOLERANCE: the kernels ``KernelSpec`` must refuse."""
    matrix = three_axis_kernel(n, sigma, distance, sigma_is_variance)
    return np.linalg.eigvalsh(matrix).min() < -PSD_TOLERANCE


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_matrix_is_byte_equal_to_the_three_axis_construction(n):
    """Every kernel is byte-equal to the reference, or refused when the
    reference is indefinite; among these, the Hamming kernels at sigma = 2.5
    and 1e6 (as a variance) from 2 bits on."""
    for distance, sigma, as_variance in itertools.product(
        ("integer-squared", "hamming-squared"), (1e-3, 0.1, 2.5, 1e6), (True, False)
    ):
        case = (distance, sigma, as_variance)
        if is_indefinite(n, sigma, distance, as_variance):
            assert distance == "hamming-squared" and sigma >= 2.5 and n >= 2, case
            with pytest.raises(ValueError, match="sigma .* kernel_distance = hamming-squared"):
                KernelSpec(n, sigma, distance, as_variance)
            continue
        assert not (distance == "hamming-squared" and sigma == 2.5 and n >= 2), case
        spec = KernelSpec(n, sigma, distance, as_variance)
        expected = three_axis_kernel(n, sigma, distance, as_variance)
        assert spec.matrix.tobytes() == expected.tobytes(), case


@pytest.mark.parametrize("n", [4, 6, 9])
def test_hamming_kernel_eigenvalues_are_the_transform_of_row_0(n):
    for sigma in (0.1, 0.2, 0.3, 0.5, 1.0, 2.5):
        matrix = three_axis_kernel(n, sigma, "hamming-squared")
        got = np.sort(walsh_hadamard(matrix[0]))
        assert np.max(np.abs(got - np.linalg.eigvalsh(matrix))) <= 1e-12, sigma


def test_indefinite_hamming_kernel_is_refused():
    # smallest eigenvalues -0.362 at sigma = 0.5 on 4 bits, +0.018 at 0.2 on 12
    with pytest.raises(ValueError, match=r"sigma = 0.5 .*smallest eigenvalue -0.362"):
        KernelSpec(4, 0.5, "hamming-squared")
    assert walsh_hadamard(KernelSpec(12, 0.2, "hamming-squared").matrix[0]).min() > 0.017


def test_all_ones_kernel_is_refused():
    """A sigma so wide that every entry rounds to 1.0 makes the MMD and its
    gradient 0 for every model, so training could not move."""
    for sigma, as_variance in ((1e30, True), (1e15, False)):
        for distance in DISTANCE_KINDS:
            message = re.escape(f"sigma = {sigma!r} gives a kernel whose every entry is 1.0")
            with pytest.raises(ValueError, match=message):
                KernelSpec(4, sigma, distance, as_variance)
    # at 1e17 only the farthest pairs' entries stay below 1.0: accepted
    matrix = KernelSpec(4, 1e17).matrix
    assert matrix[0, -1] < 1.0 and matrix[0, 1] == 1.0


def test_kernel_sigma_as_std():
    spec = KernelSpec(4, sigma=0.5, sigma_is_variance=False)
    assert spec.matrix[0, 1] == pytest.approx(math.exp(-1 / (2 * 0.25)))


def test_kernel_validation():
    with pytest.raises(ValueError):
        KernelSpec(4, sigma=0.0)
    with pytest.raises(ValueError):
        KernelSpec(4, distance="euclidean")


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
        exact = mmd_gradient(shift_probabilities(circuit, theta), target, kernel)
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
    grad = mmd_gradient(shift_probabilities(circuit, theta), target, kernel)
    assert np.linalg.norm(grad) < 1e-8


def test_sampled_gradient_unbiased(target22):
    config = TrainingConfig(d_c=2, n_layers=1)
    circuit, kernel = config.circuit(), config.kernel()
    rng = np.random.default_rng(123)
    theta = rng.uniform(0, 2 * np.pi, circuit.parameter_count)
    q = shift_probabilities(circuit, theta)
    exact = mmd_gradient(q, target22, kernel)
    draws = np.array(
        [
            sampled_gradient(q, target22, kernel, 512, np.random.default_rng(1000 + s).spawn(len(q)))
            for s in range(200)
        ]
    )
    sem = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - exact) < 3.0 * sem)


def test_sampled_gradient_deterministic(target22):
    config = TrainingConfig(d_c=2, n_layers=1)
    circuit, kernel = config.circuit(), config.kernel()
    theta = np.linspace(0, 2 * np.pi, circuit.parameter_count)
    q = shift_probabilities(circuit, theta)
    a = sampled_gradient(q, target22, kernel, 256, np.random.default_rng(5).spawn(len(q)))
    b = sampled_gradient(q, target22, kernel, 256, np.random.default_rng(5).spawn(len(q)))
    assert np.array_equal(a, b)


def test_gradient_mode_validation(target22, kernel4):
    circuit = TrainingConfig(d_c=2, n_layers=1).circuit()
    theta = np.zeros(circuit.parameter_count)
    q = shift_probabilities(circuit, theta)
    for bad in (q[1:], q[0], q[:, :8]):  # an even row count, one row, a narrow row
        with pytest.raises(ValueError):
            mmd_gradient(bad, target22, kernel4)
    for bad in (theta[1:], np.tile(theta, (2, 1))):  # one angle short, a batch
        with pytest.raises(ValueError):
            shift_probabilities(circuit, bad)


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
