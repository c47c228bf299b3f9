"""Spectral propagation over one eigensystem.

Every transition curve the package reports is a sum over the eigenvalues
E_gamma of one real symmetric matrix, |sum_gamma w_gamma e^{-i E_gamma t}|^2
with real weights w_gamma: the ensemble's survival curves (pblm) and the
Grover model's marked transfer (grover). This module holds that one
kernel and imports nothing but numpy, so a caller that needs it runs no
propagator code.
"""

from __future__ import annotations

import numpy as np

_TIME_BLOCK = 32


def spectral_blocks(vals: np.ndarray, weights: np.ndarray, times):
    """Yield (t_block, S_block) over `times`, _TIME_BLOCK times at a time, with
    S_block[k] = |sum_gamma w_gamma e^{-i E_gamma t_block[k]}|^2 for the
    eigenvalues E_gamma and real weights w_gamma; (M, L) weights give (B, L)
    blocks. The phases are formed as a cosine and a sine so that both
    products stay real."""
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    for lo in range(0, len(t_arr), _TIME_BLOCK):
        t = t_arr[lo:lo + _TIME_BLOCK]
        phases = np.outer(t, vals)
        re, im = np.cos(phases) @ weights, np.sin(phases) @ weights
        yield t, re ** 2 + im ** 2


def spectral_propagation(vals: np.ndarray, weights: np.ndarray, times) -> np.ndarray:
    """|sum_gamma w_gamma e^{-i E_gamma t}|^2 at each of `times`, given the
    eigenvalues E_gamma and real weights w_gamma; (M, L) weights give L
    curves as a (T, L) array, filled from spectral_blocks."""
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(t_arr.shape + weights.shape[1:])
    lo = 0
    for t, surv in spectral_blocks(vals, weights, t_arr):
        out[lo:lo + len(t)] = surv
        lo += len(t)
    return out
