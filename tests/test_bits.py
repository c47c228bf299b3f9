import numpy as np
import pytest

from pt_lab.bits import (check_bitstring, check_n, hamming_array,
                         hamming_table, index_array, krawtchouk_table,
                         spins_from_labels)


def test_hamming_array_matches_scalar():
    rng = np.random.default_rng(1)
    zs = rng.integers(0, 1 << 16, size=500).astype(np.uint64)
    z0 = 0b1010110011110001
    d = hamming_array(zs, z0)
    assert d.tolist() == [bin(int(z) ^ z0).count("1") for z in zs]


def test_hamming_table_matches_scalar():
    labels = [0b1011, 0, 0b0110, 0b1111]
    assert hamming_table(labels).tolist() == [
        [(a ^ b).bit_count() for b in labels] for a in labels]


@pytest.mark.parametrize("n", range(1, 7))
def test_krawtchouk_table_sums_characters(n):
    # K_j(d) = sum over popcount-j labels x of (-1)^{popcount(x & z)}
    # for any z of popcount d
    labels = range(1 << n)
    want = [[sum((-1) ** (x & ((1 << d) - 1)).bit_count()
                 for x in labels if x.bit_count() == j)
             for d in range(n + 1)] for j in range(n + 1)]
    assert krawtchouk_table(n).tolist() == want


def test_spin_convention():
    # bit value 0 maps to s = +1, so label 0 is the all-up configuration
    s = spins_from_labels(np.array([0], dtype=np.uint64), 4)
    assert s.shape == (1, 4)
    assert np.all(s == 1)
    s = spins_from_labels(np.array([0b1011], dtype=np.uint64), 4)
    assert s[0].tolist() == [-1, -1, 1, -1]


def test_spins_are_unit():
    labels = index_array(6)
    s = spins_from_labels(labels, 6)
    assert s.shape == (64, 6)
    assert np.all(np.abs(s) == 1)


def test_index_array():
    idx = index_array(3)
    assert idx.dtype == np.uint64
    assert idx.tolist() == list(range(8))


def test_bounds_checking():
    with pytest.raises(ValueError):
        check_n(0)
    with pytest.raises(ValueError):
        check_n(33)
    assert check_n(32) == 32
    with pytest.raises(ValueError):
        check_bitstring(-1, 4)
    with pytest.raises(ValueError):
        check_bitstring(16, 4)
    assert check_bitstring(15, 4) == 15
