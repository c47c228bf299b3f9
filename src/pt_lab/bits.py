"""Bit-string arithmetic over packed integer labels.

Basis states of an n-qubit register are labeled by integers in
[0, 2^n); bit i of the label is the z-projection of spin i with the
convention bit 0 -> s = +1, bit 1 -> s = -1.
"""

from __future__ import annotations

import math

import numpy as np

MAX_N = 32


def check_n(n: int) -> int:
    if not 1 <= int(n) <= MAX_N:
        raise ValueError(f"qubit count must be in [1, {MAX_N}], got {n}")
    return int(n)


def check_bitstring(z: int, n: int) -> int:
    z = int(z)
    if z < 0 or z >> n:
        raise ValueError(f"bit-string {z:#x} does not fit in {n} bits")
    return z


def hamming(a: int, b: int) -> int:
    """Hamming distance between two equal-length bit-strings."""
    return (int(a) ^ int(b)).bit_count()


def hamming_array(zs: np.ndarray, z0: int) -> np.ndarray:
    """Vectorized Hamming distance of an array of labels from z0."""
    x = np.asarray(zs, dtype=np.uint64) ^ np.uint64(int(z0))
    return np.bitwise_count(x).astype(np.int64)


def hamming_histogram_from(z0: int, probabilities: np.ndarray, n: int) -> np.ndarray:
    """Output-weighted histogram of Hamming distance from z0."""
    d = hamming_array(index_array(n), z0)
    return np.bincount(d, weights=probabilities, minlength=n + 1)


def spins_from_labels(labels: np.ndarray, n: int) -> np.ndarray:
    """(len(labels), n) array of s_i = +-1 under the bit-0 -> +1 map."""
    lab = np.asarray(labels, dtype=np.uint64)
    bits = (lab[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    return 1.0 - 2.0 * bits.astype(np.float64)


def index_array(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.uint64)


def hamming_table(labels) -> np.ndarray:
    """Pairwise Hamming distances of a sequence of labels, as int64."""
    z = np.asarray(labels, dtype=np.uint64)
    return np.bitwise_count(z[:, None] ^ z[None, :]).astype(np.int64)


def krawtchouk_table(n: int) -> np.ndarray:
    """K_j(d) = sum_k (-1)^k C(d, k) C(n-d, j-k) for j, d = 0..n, summed as
    exact integers; row j, column d. 2^-n K_j(d(z, c)) is <z|P_j|c>, with
    P_j the projector onto the x-basis states of popcount j."""
    return np.array([[sum((-1) ** k * math.comb(d, k) * math.comb(n - d, j - k)
                          for k in range(j + 1))
                      for d in range(n + 1)] for j in range(n + 1)], dtype=float)
