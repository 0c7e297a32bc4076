import numpy as np
import pytest

from bornbench import ImageShape, TrainingConfig, bas_target_distribution, sim, train


@pytest.fixture(scope="session")
def shape22():
    return ImageShape(2, 2)


@pytest.fixture(scope="session")
def target22(shape22):
    return bas_target_distribution(shape22)


@pytest.fixture(scope="session")
def trained_dc2_L2():
    """Converged reference run: d_c=2, L=2, 2048 training shots, seed 0."""
    config = TrainingConfig(
        d_c=2, n_layers=2, n_shots_train=2048, n_steps=100, alpha=0.2, seed=0
    )
    return config, train(config)


@pytest.fixture(scope="session")
def trained_dc4_L2():
    config = TrainingConfig(
        d_c=4, n_layers=2, n_shots_train=2048, n_steps=100, alpha=0.2, seed=0
    )
    return config, train(config)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def on_qubit_pairs(t, m):
    """``m`` (4x4) applied on each qubit's (ket bit, bra bit) axis pair of a
    (d, d) or (B, d, d) array."""
    t = np.asarray(t)
    n = t.shape[-1].bit_length() - 1
    out = t.reshape((-1,) + (2,) * (2 * n))
    for q in range(n):
        pair = (1 + q, 1 + n + q)
        front = np.moveaxis(out, pair, (0, 1))
        out = np.moveaxis((m @ front.reshape(4, -1)).reshape(front.shape), (0, 1), pair)
    return out.reshape(t.shape)


def density_matrix(coords):
    """The complex density matrix whose real coordinates ``evolve_density``
    returned."""
    return on_qubit_pairs(coords, sim._T)
