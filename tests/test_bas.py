import numpy as np
import pytest

from bornbench import ImageShape, TargetDistribution, bas_target_distribution, bitstring, enumerate_bas
from bornbench.bas import IMAGE


def brute_force_is_bas(index: int, rows: int, cols: int) -> bool:
    """Independent oracle: classify an image by checking its bit grid."""
    nb = rows * cols
    bits = [(index >> (nb - 1 - k)) & 1 for k in range(nb)]
    grid = [bits[r * cols : (r + 1) * cols] for r in range(rows)]
    rows_constant = all(len(set(row)) == 1 for row in grid)
    cols_constant = all(len(set(col)) == 1 for col in zip(*grid))
    return rows_constant or cols_constant


def test_bas22_states():
    states = enumerate_bas(ImageShape(2, 2))
    assert states == [0b0000, 0b0011, 0b0101, 0b1010, 0b1100, 0b1111]
    assert len(states) == 2**2 + 2**2 - 2


def test_bas11():
    assert enumerate_bas(ImageShape(1, 1)) == [0, 1]


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
@pytest.mark.parametrize("cols", [1, 2, 3, 4])
def test_enumeration_matches_brute_force(rows, cols):
    expected = sorted(
        i for i in range(2 ** (rows * cols)) if brute_force_is_bas(i, rows, cols)
    )
    states = enumerate_bas(ImageShape(rows, cols))
    assert states == expected
    assert len(states) == 2**rows + 2**cols - 2


def test_transpose_permutation():
    rows, cols = 2, 3
    states = set(enumerate_bas(ImageShape(rows, cols)))
    transposed = set(enumerate_bas(ImageShape(cols, rows)))
    nb = rows * cols

    def transpose_index(index):
        out = 0
        for r in range(rows):
            for c in range(cols):
                bit = (index >> (nb - 1 - (r * cols + c))) & 1
                out |= bit << (nb - 1 - (c * rows + r))
        return out

    assert {transpose_index(s) for s in states} == transposed


def test_uniform_target():
    target = bas_target_distribution(ImageShape(2, 2))
    support = target.support
    assert list(support) == [0, 3, 5, 10, 12, 15]
    assert np.allclose(target.probs[support], 1.0 / 6.0)
    assert target.probs.sum() == pytest.approx(1.0, abs=1e-12)

    target23 = bas_target_distribution(ImageShape(2, 3))
    assert len(target23.support) == 2**2 + 2**3 - 2 == 10
    assert np.allclose(target23.probs[target23.support], 0.1)


def test_bitstring_roundtrip():
    assert bitstring(0b0101, 4) == "0101"
    for index in range(16):
        assert int(bitstring(index, 4), 2) == index
    with pytest.raises(ValueError):
        bitstring(16, 4)


def test_shape_validation():
    with pytest.raises(ValueError):
        ImageShape(0, 2)
    with pytest.raises(ValueError):
        ImageShape(2, -1)
    assert IMAGE == ImageShape(2, 2) and IMAGE.n_bits == 4


def test_target_validation():
    with pytest.raises(ValueError):
        TargetDistribution(2, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        TargetDistribution(1, np.array([0.7, 0.7]))  # not normalized
    with pytest.raises(ValueError):
        TargetDistribution(1, np.array([-0.5, 1.5]))
