"""Analog multi-target search and its sensitivity to driver errors.

Replacing the transverse-field driver by the projector on its ground
state |S> (the uniform superposition) turns the impurity-band protocol
into an analog Grover search. Dropping O(M/N) corrections reduces the
dynamics to an (M+1)-level system: the driver state at energy eps0 (the
driver error), the marked levels at eps_j spread over a width W, and a
uniform coupling -V with V = n 2^{-n/2}. Off resonance the transfer is
perturbative in eps0/W and the protocol slows down by eps0/W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import check_n
from .spectral import spectral_propagation

# the perturbative forms apply for eps0 >= _REGIME_FACTOR * W (in_regime)
_REGIME_FACTOR = 5.0


@dataclass(frozen=True)
class GroverSetup:
    n: int
    eps: np.ndarray
    eps0: float = 0.0
    marked: tuple[int, ...] | None = None

    def __post_init__(self):
        check_n(self.n)
        eps = np.asarray(self.eps, dtype=float)
        if eps.ndim != 1 or len(eps) < 1:
            raise ValueError("eps must be a non-empty vector")
        if not np.all(np.isfinite(eps)):
            raise ValueError("eps must be finite")
        if not math.isfinite(self.eps0):
            raise ValueError(f"eps0 must be finite, got {self.eps0}")
        if len(eps) >= (1 << self.n):
            raise ValueError("need M < 2^n")
        if self.marked is not None and len(self.marked) != len(eps):
            raise ValueError("marked labels must match eps in length")
        object.__setattr__(self, "eps", eps)

    @property
    def M(self) -> int:
        return len(self.eps)

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def V(self) -> float:
        return self.n * 2.0 ** (-self.n / 2.0)

    @property
    def W(self) -> float:
        return float(self.eps.max() - self.eps.min())

    @property
    def B_perp(self) -> float:
        return 1.0 - self.eps0 / self.n


def grover_time(n: int, M: int, B_perp: float = 1.0) -> float:
    """Half-period of the resonant oscillation, (pi/(2 n B)) sqrt(2^n / M)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if B_perp <= 0:
        raise ValueError("B_perp must be positive")
    return math.pi / (2.0 * n * B_perp) * math.sqrt(2.0 ** n / M)


def build_reduced_hamiltonian(setup: GroverSetup) -> np.ndarray:
    """(M+1) x (M+1) matrix: driver state at index 0, marked states after.

    H[0,0] = eps0, H[j,j] = eps_j, H[j,0] = H[0,j] = -V, zero elsewhere.
    """
    M = setup.M
    H = np.zeros((M + 1, M + 1))
    H[0, 0] = setup.eps0
    H[np.arange(1, M + 1), np.arange(1, M + 1)] = setup.eps
    H[0, 1:] = H[1:, 0] = -setup.V
    return H


def projector_hamiltonian_dense(setup: GroverSetup) -> np.ndarray:
    """Full 2^n-dimensional cross-check Hamiltonian (n <= 14).

    H = -n B_perp |S><S| + sum_j (-n + eps_j) |z_j><z_j| with |S> the
    uniform superposition; needs explicit marked labels.
    """
    if setup.n > 14:
        raise ValueError("dense projector backend capped at n = 14")
    if setup.marked is None:
        raise ValueError("needs explicit marked bit-strings")
    N = setup.N
    H = np.full((N, N), -setup.n * setup.B_perp / N)
    idx = np.fromiter(setup.marked, dtype=np.int64)
    H[idx, idx] += -setup.n + setup.eps
    return H


def reduced_transfer(setup: GroverSetup, times) -> np.ndarray:
    """Total marked population vs time, starting in the driver state: the
    sum of each marked level's transition curve from spectral_propagation,
    since 1 - survival would lose relative precision when the population
    is small."""
    vals, vecs = np.linalg.eigh(build_reduced_hamiltonian(setup))
    # row 0 of vecs is the driver component, rows 1.. the marked levels
    out = spectral_propagation(vals, (vecs[1:] * vecs[0]).T, times).sum(axis=1)
    return float(out[0]) if np.ndim(times) == 0 else out


def _check_regime(setup: GroverSetup):
    """Refuse eps0 <= 0. Below the regime, where error_time_report's
    in_regime is False, the forms still return their values."""
    if not setup.eps0 > 0:
        raise ValueError(f"needs a positive driver error eps0, got {setup.eps0}")


def perturbative_transfer(t, setup: GroverSetup) -> np.ndarray:
    """Off-resonant marked population (2 M V^2/eps0^2)(1 - cos(eps0 t) sinc(W t/2)).

    Clamped to [0, 1]; valid to leading order in eps0/W with p0 < 1.
    """
    _check_regime(setup)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    prefactor = 2.0 * setup.M * setup.V ** 2 / setup.eps0 ** 2
    # np.sinc includes the factor pi in its argument
    envelope = np.sinc(setup.W * t_arr / (2.0 * math.pi))
    out = np.clip(prefactor * (1.0 - np.cos(setup.eps0 * t_arr) * envelope), 0.0, 1.0)
    return float(out[0]) if np.ndim(t) == 0 else out


def peak_transfer(setup: GroverSetup) -> tuple[float, float]:
    """First-peak time t0 = pi/eps0 and its height p0 = 4 M V^2/eps0^2."""
    _check_regime(setup)
    t0 = math.pi / setup.eps0
    p0 = min(4.0 * setup.M * setup.V ** 2 / setup.eps0 ** 2, 1.0)
    return t0, p0


def gamma_0(setup: GroverSetup) -> float:
    """Golden-rule width 2 pi V^2 / (W/M) of the driver state."""
    if setup.W <= 0:
        raise ValueError("needs a positive marked-level spread W")
    return 2.0 * math.pi * setup.V ** 2 / (setup.W / setup.M)


def pt_time_with_error(setup: GroverSetup) -> float:
    """Transfer time (1/Gamma_0)(pi^2 eps0 / W) in the off-resonant regime."""
    _check_regime(setup)
    return (1.0 / gamma_0(setup)) * math.pi ** 2 * setup.eps0 / setup.W


@dataclass(frozen=True)
class GroverErrorReport:
    t_pt: float
    gamma0: float
    t_grover: float
    t_degraded: float
    p0: float
    t0: float
    in_regime: bool


def error_time_report(setup: GroverSetup) -> GroverErrorReport:
    """pt_time_with_error plus every factor entering it, for sweep output.

    t_degraded is the crossover form t_G (t_G eps0) that applies when the
    bandwidth saturates at W ~ V sqrt(M).
    """
    t_g = grover_time(setup.n, setup.M, max(setup.B_perp, 1e-12))
    t0, p0 = peak_transfer(setup)
    return GroverErrorReport(
        t_pt=pt_time_with_error(setup),
        gamma0=gamma_0(setup),
        t_grover=t_g,
        t_degraded=t_g * t_g * setup.eps0,
        p0=p0,
        t0=t0,
        in_regime=bool(setup.eps0 >= _REGIME_FACTOR * setup.W),
    )
