"""Classical baselines: steepest descent, minima enumeration, annealing.

Single-flip steepest descent is the reference local search for the
2-local glass; full enumeration of its fixed points and of the basin map
(which minimum each start descends to) supports the enrichment analysis
of transfer output against uniformly seeded descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import check_bitstring, hamming_array, index_array, spins_from_labels
from .instances import (
    ImpurityBandInstance,
    SpinGlassInstance,
    all_classical_energies,
    classical_energy,
    ib_energy,
)

SD_MAX_N = 22
_BLOCK = 1 << 18


@dataclass(frozen=True)
class LocalMinimumRecord:
    z: int
    energy: float
    basin_probability: float | None = None
    steps: int | None = None
    ties: bool = False


def _energy_of(inst, z: int) -> float:
    if isinstance(inst, SpinGlassInstance):
        return classical_energy(inst, z)
    return ib_energy(inst, z)


def _neighbor_energies(inst, z: int) -> np.ndarray:
    if isinstance(inst, SpinGlassInstance):
        s = spins_from_labels(np.array([z]), inst.n)[0]
        return classical_energy(inst, z) - 2.0 * s * (inst.h + inst.J @ s)
    return np.array([ib_energy(inst, z ^ (1 << i)) for i in range(inst.n)])


def steepest_descent(inst, z: int) -> LocalMinimumRecord:
    """Greedy single-flip descent: take the lowest-energy flip until no
    flip lowers the energy; ties break toward the lowest bit index."""
    z = check_bitstring(z, inst.n)
    energy = _energy_of(inst, z)
    steps = 0
    ties = False
    while True:
        neigh = _neighbor_energies(inst, z)
        best = int(np.argmin(neigh))
        if neigh[best] >= energy:
            return LocalMinimumRecord(z=z, energy=energy, steps=steps, ties=ties)
        if np.sum(neigh == neigh[best]) > 1:
            ties = True
        z ^= 1 << best
        energy = float(neigh[best])
        steps += 1


def _descent_pointers(E: np.ndarray, n: int) -> np.ndarray:
    """next-state pointer for every z: best single flip (lowest bit on ties), self if fixed point.

    Runs over blocks of _BLOCK states. The energies after flipping bit i are
    read through views, not gathered: within a block, its
    (-1, 2, 2^i) reshape with the two halves swapped; for bits at or above
    the block size, the block that starts at lo ^ 2^i.
    """
    N = 1 << n
    nxt = np.arange(N, dtype=np.int64)
    for lo in range(0, N, _BLOCK):
        best = nxt[lo:lo + _BLOCK]
        blk, bestE = best.copy(), E[lo:lo + _BLOCK].copy()
        for i in range(n):
            bit = 1 << i
            if bit < len(blk):
                shape = (-1, 2, bit)
                flip = E[lo:lo + _BLOCK].reshape(shape)[:, ::-1]
            else:
                shape = (len(blk),)
                flip = E[lo ^ bit:(lo ^ bit) + len(blk)]
            view = bestE.reshape(shape)
            better = flip < view
            np.copyto(view, flip, where=better)
            np.copyto(best.reshape(shape), (blk ^ bit).reshape(shape), where=better)
    return nxt


def _basin_roots(E: np.ndarray, n: int) -> np.ndarray:
    """Terminal minimum of the descent path from every start (pointer jumping)."""
    nxt = _descent_pointers(E, n)
    while True:
        hop = nxt[nxt]
        if np.array_equal(hop, nxt):
            return nxt
        nxt = hop


def basin_distribution(inst, start_law=None):
    """(minima labels ascending, energies, masses): the mass each minimum
    receives when descent starts from `start_law`, a probability vector
    over all 2^n states (for example a transfer output), or uniformly for
    None. The first call for an instance object keeps its basin map on it,
    read-only, as all_classical_energies keeps the energies: the minima,
    their energies, and each state's basin index in the smallest unsigned
    dtype that holds the minima count, from one descent pass."""
    n = inst.n
    if n > SD_MAX_N:
        raise ValueError(f"full enumeration capped at n = {SD_MAX_N}")
    if "_basins" not in vars(inst):
        E = all_classical_energies(inst)
        roots = _basin_roots(E, n)
        minima = np.flatnonzero(roots == np.arange(1 << n))
        index = np.empty(1 << n, dtype=np.min_scalar_type(len(minima)))
        index[minima] = np.arange(len(minima))
        basins = (minima, E[minima], index[roots])
        for a in basins:
            a.flags.writeable = False
        object.__setattr__(inst, "_basins", basins)
    minima, energies, index = inst._basins
    if start_law is None:
        return minima, energies, np.bincount(index, minlength=len(minima)) / (1 << n)
    p = np.asarray(start_law, dtype=float)
    if p.shape != (1 << n,):
        raise ValueError("start distribution must cover all 2^n states")
    if not math.isclose(p.sum(), 1.0, rel_tol=0, abs_tol=1e-6):
        raise ValueError("start distribution must sum to 1")
    return minima, energies, np.bincount(index, weights=p, minlength=len(minima))


def local_minima(inst) -> tuple[np.ndarray, np.ndarray]:
    """(labels, energies) of every single-flip local minimum, labels
    ascending, read from the instance's basin map (basin_distribution)."""
    # read through the module global here and below, so a wrapper bound in
    # its place (perfbench's tracer) sees every read of the basin map
    return basin_distribution(inst)[:2]


def enumerate_local_minima(inst) -> list[LocalMinimumRecord]:
    """All single-flip local minima with their uniform-start basin masses."""
    return [LocalMinimumRecord(z=int(z), energy=float(e), basin_probability=float(m))
            for z, e, m in zip(*basin_distribution(inst))]


def enrichment_ratio(inst, pt_output):
    """Per-minimum ratio of descent mass under the transfer output
    distribution to descent mass under uniform starts, both read from the
    one basin map.

    Returns (labels, energies, ratio, mass_pt, mass_uniform); 0/0 cases
    are reported as nan (undefined), x/0 as inf.
    """
    labels, energies, mass_u = basin_distribution(inst)
    _, _, mass_pt = basin_distribution(inst, pt_output)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = mass_pt / mass_u
    return labels, energies, ratio, mass_pt, mass_u


@dataclass(frozen=True)
class AnnealSchedule:
    T_start: float = 3.0
    T_end: float = 0.05
    sweeps: int = 200
    kind: str = "geometric"

    def __post_init__(self):
        if self.T_start <= 0 or self.T_end <= 0:
            raise ValueError("temperatures must be positive")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if self.kind not in ("geometric", "linear"):
            raise ValueError("kind must be 'geometric' or 'linear'")

    def temperatures(self) -> np.ndarray:
        k = np.arange(self.sweeps)
        if self.sweeps == 1:
            return np.array([self.T_start])
        frac = k / (self.sweeps - 1)
        if self.kind == "geometric":
            return self.T_start * (self.T_end / self.T_start) ** frac
        return self.T_start + (self.T_end - self.T_start) * frac


@dataclass
class AnnealResult:
    z: int
    energy: float
    trace: np.ndarray


def simulated_annealing(inst: SpinGlassInstance, schedule: AnnealSchedule,
                        seed: int = 0, z_start: int | None = None) -> AnnealResult:
    """Metropolis single-flip annealing along the given temperature schedule.

    One sweep proposes n random single-flip moves. The energy trace holds
    the value after each sweep.
    """
    if not isinstance(inst, SpinGlassInstance):
        raise TypeError("annealing is implemented for the spin-glass family")
    n = inst.n
    rng = np.random.default_rng(seed)
    if z_start is None:
        z_start = int(rng.integers(0, 1 << n))
    z_start = check_bitstring(z_start, n)
    s = spins_from_labels(np.array([z_start]), n)[0]
    f = inst.h + inst.J @ s
    energy = float(inst.h @ s + 0.5 * s @ inst.J @ s)
    trace = np.empty(schedule.sweeps)
    for k, T in enumerate(schedule.temperatures()):
        sites = rng.integers(0, n, size=n)
        draws = rng.random(n)
        for i, u in zip(sites, draws):
            dE = -2.0 * s[i] * f[i]
            if dE <= 0.0 or u < math.exp(-dE / T):
                s[i] = -s[i]
                f += 2.0 * s[i] * inst.J[:, i]
                energy += dE
        trace[k] = energy
    z = int(np.sum((s < 0).astype(np.int64) << np.arange(n)))
    return AnnealResult(z=z, energy=energy, trace=trace)


# ---------------------------------------------------------------------------
# transfer-output structure analysis


def pt_energy_window(probabilities: np.ndarray, energies: np.ndarray):
    """Weighted mean +- weighted std of the output energy distribution."""
    p = np.asarray(probabilities, dtype=float)
    p = p / p.sum()
    mean = float(p @ energies)
    std = float(np.sqrt(max(p @ (energies - mean) ** 2, 0.0)))
    return mean - std, mean + std


def hamming_histogram_from(z0: int, probabilities: np.ndarray, n: int) -> np.ndarray:
    """Output-weighted histogram of Hamming distance from z0."""
    d = hamming_array(index_array(n), z0)
    return np.bincount(d, weights=probabilities, minlength=n + 1)


def pair_hamming_histogram(labels: np.ndarray, weights: np.ndarray, n: int,
                           block: int = 2048) -> np.ndarray:
    """Joint-probability-weighted histogram of pairwise Hamming distances.

    Counts ordered pairs i != j with weight w_i w_j; the zero-distance
    self terms are excluded. Blockwise to bound memory at large supports.
    """
    z = np.asarray(labels, dtype=np.uint64)
    w = np.asarray(weights, dtype=float)
    hist = np.zeros(n + 1)
    for lo in range(0, len(z), block):
        zb = z[lo:lo + block]
        wb = w[lo:lo + block]
        d = np.bitwise_count(zb[:, None] ^ z[None, :]).astype(np.int64)
        joint = wb[:, None] * w[None, :]
        hist += np.bincount(d.ravel(), weights=joint.ravel(), minlength=n + 1)
    hist[0] -= float((w * w).sum())
    hist[0] = max(hist[0], 0.0)
    return hist


def alternation_contrast(pair_hist: np.ndarray) -> float:
    """Even-vs-odd imbalance of the d >= 1 pairwise-distance mass.

    Dimerized instances alternate: flipping a dimer costs nothing extra
    once its partner flips, so even distances carry excess weight. The
    statistic is (sum even d>=2 - sum odd) / (sum d>=1).
    """
    tail = pair_hist[1:]
    total = tail.sum()
    if total <= 0:
        return 0.0
    even = pair_hist[2::2].sum()
    odd = pair_hist[1::2].sum()
    return float((even - odd) / total)


def median_hamming(hamming_hist: np.ndarray) -> float:
    """Weighted median distance of an output-weighted Hamming histogram."""
    w = np.asarray(hamming_hist, dtype=float)
    total = w.sum()
    if total <= 0:
        return 0.0
    cum = np.cumsum(w) / total
    return float(np.searchsorted(cum, 0.5))
