"""Problem instances: impurity-band and 2-local spin-glass models.

Two classical energy families share the bit-string conventions of
:mod:`pt_lab.bits`:

* the impurity band: M marked n-bit strings carry energies
  base_energy + eps_j inside a strip of width W, every other string has
  energy 0;
* the 2-local spin glass: random fields and all-to-all couplings on a
  6-bit uniform grid in [-1, 1], an optional set of disjoint dimer
  bonds pinned at J = -4, and a "matched" transverse driver whose
  per-term strength follows the magnitude of the longitudinal terms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bits import check_bitstring, check_n, index_array, spins_from_labels

FORMAT_VERSION = 1

# 64 uniformly spaced coupling levels spanning [-1, 1]; the grid does
# not contain 0, so every pair carries a bond.
COUPLING_GRID = np.linspace(-1.0, 1.0, 64)
DIMER_J = -4.0

ENUMERATION_MAX_N = 24
# pair_energies gives the same bits for any block that is a multiple of 4
# labels; some other sizes (1-3, 6, 7, ...) round differently in the matrix
# kernels, so keep it a multiple of 4
_ENUM_BLOCK = 1 << 12


def quantize_couplings(x: np.ndarray) -> np.ndarray:
    """Snap values to the nearest of the 64 grid levels."""
    idx = np.clip(np.round((np.asarray(x) + 1.0) * 31.5), 0, 63).astype(int)
    return COUPLING_GRID[idx]


def _check_finite(**values):
    """ValueError naming the first of values that is not a finite number."""
    for name, x in values.items():
        try:
            ok = math.isfinite(x)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be a finite number, got {x!r}")


def _grid_index(x: np.ndarray) -> np.ndarray:
    idx = np.round((np.asarray(x) + 1.0) * 31.5).astype(int)
    if not np.allclose(COUPLING_GRID[idx], x, rtol=0, atol=1e-12):
        raise ValueError("coupling value is not on the 6-bit grid")
    return idx


@dataclass(frozen=True)
class ImpurityBandInstance:
    n: int
    marked: tuple[int, ...]
    eps: np.ndarray
    W: float
    B_perp: float
    base_energy: float | None = None
    seed: int | None = None

    def __post_init__(self):
        check_n(self.n)
        if len(self.marked) != len(set(self.marked)):
            raise ValueError("marked states must be pairwise distinct")
        if len(self.eps) != len(self.marked):
            raise ValueError("eps must have one entry per marked state")
        for z in self.marked:
            check_bitstring(z, self.n)
        if self.base_energy is None:
            object.__setattr__(self, "base_energy", -float(self.n))
        _check_finite(W=self.W, B_perp=self.B_perp, base_energy=self.base_energy)
        if self.W <= 0:
            raise ValueError("W must be positive")
        # B_perp = 0 is allowed: the protocol degenerates to a diagonal
        # Hamiltonian, which the CLI uses as a trivial check.
        if self.B_perp < 0:
            raise ValueError("B_perp must be >= 0")
        eps = np.asarray(self.eps, dtype=float)
        if not np.all(np.isfinite(eps)):
            raise ValueError("eps must be finite")
        object.__setattr__(self, "eps", eps)

    def __eq__(self, other):
        if not isinstance(other, ImpurityBandInstance):
            return NotImplemented
        return (self.n == other.n and self.marked == other.marked
                and np.array_equal(self.eps, other.eps)
                and self.W == other.W and self.B_perp == other.B_perp
                and self.base_energy == other.base_energy
                and self.seed == other.seed)

    __hash__ = None

    @property
    def M(self) -> int:
        return len(self.marked)


@dataclass(frozen=True)
class SpinGlassInstance:
    n: int
    h: np.ndarray
    J: np.ndarray
    dimers: tuple[tuple[int, int], ...] = ()
    driver_scale: float = 0.2
    seed: int | None = None

    def __post_init__(self):
        check_n(self.n)
        h = np.asarray(self.h, dtype=float)
        J = np.asarray(self.J, dtype=float)
        if h.shape != (self.n,) or J.shape != (self.n, self.n):
            raise ValueError("h must be (n,), J must be (n, n)")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(J))):
            raise ValueError("h and J must be finite")
        _check_finite(driver_scale=self.driver_scale)
        if not np.array_equal(J, J.T) or np.any(np.diag(J) != 0):
            raise ValueError("J must be symmetric with zero diagonal")
        cover = [s for pair in self.dimers for s in pair]
        if len(cover) != len(set(cover)):
            raise ValueError("dimer pairs must be disjoint")
        dset = {tuple(sorted(p)) for p in self.dimers}
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (i, j) in dset:
                    if J[i, j] != DIMER_J:
                        raise ValueError("dimer bonds must have J = -4")
                elif abs(J[i, j]) > 1.0:
                    raise ValueError("non-dimer |J| must be <= 1")
        if np.any(np.abs(h) > 1.0):
            raise ValueError("|h| must be <= 1")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "dimers", tuple(tuple(sorted(p)) for p in self.dimers))

    def __eq__(self, other):
        if not isinstance(other, SpinGlassInstance):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.h, other.h)
                and np.array_equal(self.J, other.J)
                and self.dimers == other.dimers
                and self.driver_scale == other.driver_scale
                and self.seed == other.seed)

    __hash__ = None

    def driver_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Matched-driver weights: field part G*(|h_i|+1), bond part G*(|J_ij|+1)."""
        g = self.driver_scale
        hx = g * (np.abs(self.h) + 1.0)
        Jx = g * (np.abs(self.J) + 1.0)
        np.fill_diagonal(Jx, 0.0)
        return hx, Jx


def classical_energy(inst: SpinGlassInstance, z: int) -> float:
    """E(z) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j."""
    z = check_bitstring(z, inst.n)
    s = spins_from_labels(np.array([z]), inst.n)[0]
    return float(inst.h @ s + 0.5 * s @ inst.J @ s)


def ib_energy(inst: ImpurityBandInstance, z: int) -> float:
    z = check_bitstring(z, inst.n)
    try:
        j = inst.marked.index(z)
    except ValueError:
        return 0.0
    return float(inst.base_energy + inst.eps[j])


def pair_energies(h: np.ndarray, J: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Quadratic form h.s + sum_{i<j} J s s evaluated on given labels, in
    blocks of _ENUM_BLOCK = 2^12 labels, so the block x n spin matrix and the
    intermediates built from it stay at a few hundred KiB."""
    out = np.empty(len(labels))
    for lo in range(0, len(labels), _ENUM_BLOCK):
        s = spins_from_labels(labels[lo:lo + _ENUM_BLOCK], len(h))
        out[lo:lo + _ENUM_BLOCK] = s @ h + 0.5 * np.einsum("zi,ij,zj->z", s, J, s,
                                                           optimize=True)
    return out


def label_energies(inst, labels) -> np.ndarray:
    """Classical energies of the given labels in the bits of
    all_classical_energies, without its 2^n table: the marked lookup on an
    impurity band, pair_energies on a spin glass, whose labels are padded
    with label 0 to a multiple of 4 (see _ENUM_BLOCK)."""
    labels = np.asarray(labels, dtype=np.int64)
    if isinstance(inst, ImpurityBandInstance):
        marked = dict(zip(inst.marked, (inst.base_energy + inst.eps).tolist()))
        return np.array([marked.get(z, 0.0) for z in labels.tolist()])
    padded = np.zeros(len(labels) + (-len(labels) % 4), dtype=np.int64)
    padded[:len(labels)] = labels
    return pair_energies(inst.h, inst.J, padded)[:len(labels)]


def all_classical_energies(inst) -> np.ndarray:
    """Dense vector of classical energies over all 2^n basis states.

    Supports both instance families; capped at n = 24 for memory. The first
    call for an instance object keeps the vector on it, read-only, and later
    calls share it, so the instance's arrays must not change after that.
    """
    n = inst.n
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"full enumeration capped at n = {ENUMERATION_MAX_N}")
    if "_energies" in vars(inst):
        return inst._energies
    if isinstance(inst, ImpurityBandInstance):
        E = np.zeros(1 << n)
        E[np.fromiter(inst.marked, dtype=np.int64)] = inst.base_energy + inst.eps
    else:
        E = pair_energies(inst.h, inst.J, index_array(n))
    E.flags.writeable = False
    object.__setattr__(inst, "_energies", E)
    return E


def gen_impurity_band(n, M, W, eps_law="uniform", seed=0, B_perp=1.0) -> ImpurityBandInstance:
    """Draw M distinct uniform bit-strings with i.i.d. strip energies.

    eps_law "uniform" draws on [-W/2, W/2]; "gauss" draws a centered
    Gaussian of standard deviation W/2 truncated to the same interval.
    """
    n = check_n(n)
    if M < 1 or M > (1 << n):
        raise ValueError(f"need 1 <= M <= 2^n = {1 << n}, got M = {M}")
    if not W > 0:
        raise ValueError(f"W must be positive, got {W}")
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < M:
        for z in rng.integers(0, 1 << n, size=2 * (M - len(chosen)), dtype=np.uint64):
            z = int(z)
            if z not in seen:
                seen.add(z)
                chosen.append(z)
                if len(chosen) == M:
                    break
    if eps_law == "uniform":
        eps = rng.uniform(-W / 2, W / 2, size=M)
    elif eps_law == "gauss":
        eps = rng.normal(0.0, W / 2, size=M)
        bad = np.abs(eps) > W / 2
        while np.any(bad):
            eps[bad] = rng.normal(0.0, W / 2, size=int(bad.sum()))
            bad = np.abs(eps) > W / 2
    else:
        raise ValueError(f"unknown eps_law {eps_law!r}")
    return ImpurityBandInstance(n=n, marked=tuple(chosen), eps=eps, W=float(W),
                                B_perp=float(B_perp), seed=seed)


def gen_spin_glass(n, dimer_count=None, seed=0, driver_scale=0.2) -> SpinGlassInstance:
    """Random 6-bit-precision fields and couplings plus dimer bonds.

    dimer_count defaults to n // 2 (a perfect matching when n is even),
    matching the construction of the numerical-section model; pass 0 for
    the no-dimer control family.
    """
    n = check_n(n)
    if dimer_count is None:
        dimer_count = n // 2
    if not 0 <= 2 * dimer_count <= n:
        raise ValueError(f"dimer count must lie in [0, n // 2 = {n // 2}], "
                         f"got {dimer_count}")
    rng = np.random.default_rng(seed)
    h = quantize_couplings(rng.uniform(-1, 1, size=n))
    J = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    J[iu] = quantize_couplings(rng.uniform(-1, 1, size=len(iu[0])))
    J = J + J.T
    spins = rng.permutation(n)[: 2 * dimer_count]
    dimers = tuple(tuple(sorted((int(a), int(b)))) for a, b in zip(spins[::2], spins[1::2]))
    for i, j in dimers:
        J[i, j] = J[j, i] = DIMER_J
    return SpinGlassInstance(n=n, h=h, J=J, dimers=dimers,
                             driver_scale=float(driver_scale), seed=seed)


@dataclass(frozen=True)
class SpectrumSummary:
    bin_edges: np.ndarray
    counts: np.ndarray
    e_min: float
    e_max: float
    mean: float
    std: float


def spectrum_summary(inst, bins=64) -> SpectrumSummary:
    """Histogram of all 2^n classical energies (density of states)."""
    E = all_classical_energies(inst)
    counts, edges = np.histogram(E, bins=bins)
    return SpectrumSummary(bin_edges=edges, counts=counts,
                           e_min=float(E.min()), e_max=float(E.max()),
                           mean=float(E.mean()), std=float(E.std()))


# ---------------------------------------------------------------------------
# serialization


def instance_to_dict(inst) -> dict:
    if isinstance(inst, ImpurityBandInstance):
        return {
            "version": FORMAT_VERSION,
            "kind": "impurity_band",
            "n": inst.n,
            "marked": list(inst.marked),
            "eps": [float(x) for x in inst.eps],
            "W": inst.W,
            "B_perp": inst.B_perp,
            "base_energy": inst.base_energy,
            "seed": inst.seed,
        }
    if isinstance(inst, SpinGlassInstance):
        dset = set(inst.dimers)
        iu = np.triu_indices(inst.n, 1)
        J_entries = []
        for i, j in zip(*iu):
            if (int(i), int(j)) in dset:
                continue
            J_entries.append([int(i), int(j), int(_grid_index(inst.J[i, j]))])
        return {
            "version": FORMAT_VERSION,
            "kind": "spin_glass",
            "n": inst.n,
            # h and J entries hold exact 6-bit grid indices, not floats,
            # so the JSON round-trip is lossless.
            "h": [int(k) for k in _grid_index(inst.h)],
            "J": J_entries,
            "grid_levels": len(COUPLING_GRID),
            "grid_scale": 1.0,
            "dimers": [list(p) for p in inst.dimers],
            "dimer_J": DIMER_J,
            "driver_scale": inst.driver_scale,
            "seed": inst.seed,
        }
    raise TypeError(f"not an instance: {type(inst)!r}")


# keys an instance document must hold, by kind
_REQUIRED_KEYS = {
    "impurity_band": ("n", "marked", "eps", "W", "B_perp"),
    "spin_glass": ("n", "h", "J", "dimers", "driver_scale"),
}


def _indices(values, stop: int, what: str) -> list:
    """values as a list; ValueError unless each is an integer in [0, stop)."""
    values = list(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < stop:
            raise ValueError(f"{what} must be integers in [0, {stop - 1}], "
                             f"got {v!r}")
    return values


def instance_from_dict(doc: dict):
    """Instance from its JSON document; ValueError names what is malformed."""
    if not isinstance(doc, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in _REQUIRED_KEYS:
        raise ValueError(f"unknown instance kind {kind!r}")
    missing = [k for k in _REQUIRED_KEYS[kind] if k not in doc]
    if missing:
        raise ValueError(f"{kind} instance lacks {', '.join(map(repr, missing))}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = check_n(n)
    if kind == "impurity_band":
        return ImpurityBandInstance(
            n=n, marked=tuple(_indices(doc["marked"], 1 << n, "marked states")),
            eps=np.asarray(doc["eps"], dtype=float),
            W=doc["W"], B_perp=doc["B_perp"],
            base_energy=doc.get("base_energy"), seed=doc.get("seed"),
        )
    levels = len(COUPLING_GRID)
    h = COUPLING_GRID[_indices(doc["h"], levels, "h grid indices")]
    J = np.zeros((n, n))
    for i, j, k in doc["J"]:
        i, j = _indices((i, j), n, "J sites")
        (k,) = _indices([k], levels, "J grid indices")
        J[i, j] = J[j, i] = COUPLING_GRID[k]
    dimers = tuple(tuple(_indices(p, n, "dimer sites")) for p in doc["dimers"])
    for i, j in dimers:
        J[i, j] = J[j, i] = doc.get("dimer_J", DIMER_J)
    return SpinGlassInstance(n=n, h=h, J=J, dimers=dimers,
                             driver_scale=doc["driver_scale"], seed=doc.get("seed"))


def load_instance(path):
    with open(path) as f:
        return instance_from_dict(json.load(f))
