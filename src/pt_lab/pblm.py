"""Ensemble statistics of preferred-basis heavy-tailed random matrices.

The downfolded impurity band is modeled by symmetric M x M matrices with
i.i.d. diagonal disorder of width W = lambda * M^(gamma/2) * V_typ and
off-diagonal magnitudes V_typ * sqrt(w), log w ~ Gamma(1/2, 1). For
1 < gamma < 2 the eigenstates form minibands: delocalized over many
marked states but over a vanishing fraction of them. The decay rate of
basis state j is Gamma_j = 2 Sigma''_j, and the ensemble law of Sigma''
is an index-1 stable law with asymmetry beta = 1 whose location and
scale follow from (Omega, Sigma*'').

Stable densities here use the physics convention

    L_1^{beta, C=1}(x) = (1/pi) * int_0^inf e^{-k} cos(k x + (2 beta/pi) k log k) dk,

which has the heavy right tail for beta = +1; general scale C and shift
enter as a pure affine map of x. At alpha = 1 and unit scale this is
Nolan's S1 parameterisation, so the density, the CDF and hence the
quantiles all come from Nolan's finite-interval integral (Commun.
Statist.-Stochastic Models 13, 759 (1997)) with no rescaling. It is also
scipy.stats.levy_stable's default, which the tests use as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .downfold import DownfoldedMatrix
from .spectral import spectral_blocks

EULER_GAMMA = 0.5772156649015329

# _standard_quantiles(1.0): the S1(1, 1) quartiles, frozen so that a fit at
# beta = 1 (every pblm-ensemble and default stats-fit call) runs no solver;
# test_frozen_quartiles_match_solver holds the solver to these bits
_S1_QUARTILES = (-0.41776476405072077, 0.5756301439450774, 2.550815682820456)

_GRID_PER_DECADE = 256
_GAMMA_WINDOW = (0.9, 0.37)  # gamma_samples' survival window (hi, lo)
_PIECE_NODES = 30
_PIECES = 31
# rows per block of the per-site row passes (self-energies, row spreads)
_ROW_BLOCK = 64


@dataclass(frozen=True)
class PBLMConfig:
    M: int
    gamma: float
    lam: float = 1.0
    V_typ_unit: float = 1.0

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be finite and positive, got {self.lam}")
        if not (math.isfinite(self.V_typ_unit) and self.V_typ_unit > 0):
            raise ValueError(f"V_typ must be finite and positive, got {self.V_typ_unit}")
        try:
            W = self.W
        except OverflowError:
            W = math.inf
        if not math.isfinite(W):
            raise ValueError(f"W = lambda M^(gamma/2) V_typ must be finite, got {W}")

    @property
    def W(self) -> float:
        return self.lam * self.M ** (self.gamma / 2.0) * self.V_typ_unit


@dataclass(frozen=True)
class LevyStableParams:
    beta: float
    C: float
    shift: float

    def __post_init__(self):
        if abs(self.beta) > 1:
            raise ValueError("|beta| must be <= 1")
        if self.C <= 0:
            raise ValueError("scale C must be positive")


def sample_pblm(config: PBLMConfig, seed: int = 0) -> DownfoldedMatrix:
    """One realization: uniform diagonal of width W, heavy-tailed couplings.

    Off-diagonal magnitude is V_typ e^{u/2} with u ~ Gamma(1/2, 1), so the
    squared ratio w = (V/V_typ)^2 has the 1/(w^2 sqrt(pi log w)) law
    exactly; signs are independent and symmetric.
    """
    rng = np.random.default_rng(seed)
    M = config.M
    W = config.W
    diag = rng.uniform(-W / 2.0, W / 2.0, size=M)
    iu = np.triu_indices(M, 1)
    u = rng.gamma(0.5, 1.0, size=len(iu[0]))
    signs = rng.choice(np.array([-1.0, 1.0]), size=len(iu[0]))
    mat = np.zeros((M, M))
    mat[iu] = config.V_typ_unit * np.exp(0.5 * u) * signs
    mat = mat + mat.T
    mat[np.diag_indices(M)] = diag
    return DownfoldedMatrix(matrix=mat, V_typ=config.V_typ_unit, W=W)


def classify_phase(config: PBLMConfig) -> str:
    """Ergodic below gamma = 1, minibands for 1 < gamma < 2, localized above 2."""
    g = config.gamma
    if g == 1.0 or g == 2.0:
        return "boundary"
    if g < 1.0:
        return "ergodic"
    if g < 2.0:
        return "non_ergodic_delocalized"
    return "localized"


def omega_predicted(config: PBLMConfig) -> float:
    """Miniband size Omega = (pi/lambda)^2 M^(2-gamma)."""
    return (math.pi / config.lam) ** 2 * config.M ** (2.0 - config.gamma)


def sigma_omega(omega: float) -> float:
    """Relative dispersion sqrt(pi / (4 log Omega)) of the miniband width."""
    if omega <= 1.0:
        raise ValueError("needs Omega > 1")
    return math.sqrt(math.pi / (4.0 * math.log(omega)))


def mu_omega(omega: float) -> float:
    """Location coefficient 1/sigma + 2 sigma (1 - gamma_Euler)/pi."""
    s = sigma_omega(omega)
    return 1.0 / s + 2.0 * s * (1.0 - EULER_GAMMA) / math.pi


@dataclass(frozen=True)
class GammaLawPrediction:
    sigma_typ: float
    scale: float
    sigma_star: float
    gamma_typ: float
    omega: float


def predicted_gamma_law(config: PBLMConfig) -> GammaLawPrediction:
    """Stable-law location/scale of Sigma'' plus the typical miniband width.

    Sigma*'' = pi V_typ^2 / (W/M) is the golden-rule unit; the index-1
    law has location mu_Omega Sigma*'' and scale sigma_Omega Sigma*'';
    Gamma_typ = V_typ sqrt(pi Omega log Omega / 4).
    """
    omega = omega_predicted(config)
    sigma_star = math.pi * config.V_typ_unit ** 2 / (config.W / config.M)
    gamma_typ = config.V_typ_unit * math.sqrt(
        math.pi * omega * math.log(omega) / 4.0)
    return GammaLawPrediction(
        sigma_typ=mu_omega(omega) * sigma_star,
        scale=sigma_omega(omega) * sigma_star,
        sigma_star=sigma_star,
        gamma_typ=gamma_typ,
        omega=omega,
    )


# ---------------------------------------------------------------------------
# index-1 stable law


@lru_cache(maxsize=1)
def _graded_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on (-1, 1): row k holds _PIECE_NODES nodes on each
    of +-(2^-(k+1), 2^-k), the last row on +-(0, 2^-(_PIECES-1)). Built on
    the first call, not at import."""
    t, w = np.polynomial.legendre.leggauss(_PIECE_NODES)
    edges = np.r_[0.5 ** np.arange(_PIECES), 0.0]
    half = 0.5 * (edges[:-1] - edges[1:])[:, None]
    u = edges[1:, None] + half * (t + 1.0)
    return np.hstack([-u, u]), np.hstack([half * w, half * w])


def _standard_law(x: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(CDF, density) of the standard (C=1, shift=0) law at x.

    beta = 0 is the Cauchy law, beta < 0 the mirror image of -beta. For
    beta > 0 and s = exp(-pi x/(2 beta)), Nolan's integrals over theta in
    (-pi/2, pi/2) are F = (1/pi) int exp(-s V), f = (1/(2 beta)) int
    s V exp(-s V), with V = (2/pi) c/cos(theta) exp(c tan(theta)/beta),
    c = pi/2 + beta theta, increasing in theta. Bisection finds the peak
    s V = 1 of f's integrand, theta*, and theta = theta* (1 - |u|) + u pi/2
    puts the _graded_nodes densest next to it; the peak's width shrinks
    like 1/x^2, and the finest piece resolves it up to x of about 1e4.
    """
    if beta == 0.0:
        return 0.5 + np.arctan(x) / math.pi, 1.0 / (math.pi * (1.0 + x ** 2))
    if beta < 0.0:
        cdf, pdf = _standard_law(-x, -beta)
        return 1.0 - cdf, pdf
    log_s = (-math.pi / (2.0 * beta)) * x[:, None]

    def log_sv(theta):  # in logs, so that theta -> -pi/2 stays finite
        c = math.pi / 2.0 + beta * theta
        return (np.log(c / (math.pi / 2.0) / np.cos(theta))
                + c * np.tan(theta) / beta + log_s)

    lo, hi = np.full(log_s.shape, -math.pi / 2.0), np.full(log_s.shape, math.pi / 2.0)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        below = log_sv(mid) < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    peak = 0.5 * (lo + hi)
    cdf, pdf = np.zeros(len(x)), np.zeros(len(x))
    with np.errstate(divide="ignore", over="ignore"):
        for u, w in zip(*_graded_nodes()):
            y = log_sv(peak * (1.0 - np.abs(u)) + (math.pi / 2.0) * u)
            jac, sv = (math.pi / 2.0 - np.sign(u) * peak) * w, np.exp(y)
            cdf += (jac * np.exp(-sv)).sum(axis=1)
            pdf += (jac * np.exp(y - sv)).sum(axis=1)
    return cdf / math.pi, pdf / (2.0 * beta)


def _standard_pdf(x: np.ndarray, beta: float) -> np.ndarray:
    """Density of the standard (C=1, shift=0) law at x."""
    return _standard_law(np.asarray(x, dtype=float), beta)[1]


def stable_pdf(x, params: LevyStableParams) -> np.ndarray:
    """Density of the index-1 stable family."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    z = (x_arr - params.shift) / params.C
    out = _standard_pdf(z, params.beta) / params.C
    return float(out[0]) if np.ndim(x) == 0 else out


def stable_sample(params: LevyStableParams, count: int, seed: int = 0) -> np.ndarray:
    """Chambers-Mallows-Stuck draws mapped to the physics convention.

    The standard variate is (2/pi) [ (pi/2 + beta U) tan U
    - beta log( (pi/2) W cos U / (pi/2 + beta U) ) ] with U uniform on
    (-pi/2, pi/2) and W ~ Exp(1); scale and shift act affinely.
    """
    rng = np.random.default_rng(seed)
    U = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=count)
    W = rng.exponential(1.0, size=count)
    b = params.beta
    half = math.pi / 2.0
    x = (2.0 / math.pi) * ((half + b * U) * np.tan(U)
                           - b * np.log(half * W * np.cos(U) / (half + b * U)))
    return params.C * x + params.shift


@lru_cache(maxsize=8)
def _standard_quantiles(beta: float, probs: tuple = (0.25, 0.5, 0.75)) -> tuple:
    """Quantiles of the standard law by Newton's method on its CDF, each kept
    in a bracket on arctan x that starts as (-pi/2, pi/2): a step that
    leaves it bisects instead. Stops once every step is <= 1e-13 (1 + |x|)."""
    p = np.asarray(probs, dtype=float)
    lo, hi = np.full(p.shape, -math.pi / 2.0), np.full(p.shape, math.pi / 2.0)
    x = np.zeros(p.shape)
    for _ in range(100):
        cdf, pdf = _standard_law(x, beta)
        below, phi = cdf < p, np.arctan(x)
        lo, hi = np.where(below, phi, lo), np.where(below, hi, phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - (cdf - p) / pdf
        new = np.where((np.arctan(new) >= lo) & (np.arctan(new) <= hi), new,
                       np.tan(0.5 * (lo + hi)))
        x, step = new, np.abs(new - x)
        if np.all(step <= 1e-13 * (1.0 + np.abs(x))):
            break
    return tuple(float(q) for q in x)


def fit_stable_quantiles(samples, beta: float = 1.0) -> LevyStableParams:
    """Quantile-matching fit of (C, shift) at fixed alpha = 1 and beta.

    The interquartile spread sets C, the median sets the shift; both are
    robust to the law's infinite mean.
    """
    if not -1.0 <= beta <= 1.0:
        raise ValueError("|beta| must be <= 1")
    s = np.asarray(samples, dtype=float)
    s = s[np.isfinite(s)]
    if len(s) < 8:
        raise ValueError("too few samples for a quantile fit")
    q25s, q50s, q75s = (_S1_QUARTILES if beta == 1.0
                        else _standard_quantiles(beta))
    s25, s50, s75 = np.percentile(s, [25.0, 50.0, 75.0])
    C = (s75 - s25) / (q75s - q25s)
    if C <= 0:
        raise ValueError("degenerate sample spread")
    return LevyStableParams(beta=beta, C=float(C),
                            shift=float(s50 - C * q50s))


def cauchy_shift_pdf(sigma_prime, M: int, sigma_star: float):
    """Cauchy law of the level shift Sigma' with half-width
    Sigma'_typ = Sigma*'' sqrt(4 log M / pi)."""
    if M < 2:
        raise ValueError("M must be >= 2")
    s_typ = sigma_prime_typ(M, sigma_star)
    x = np.asarray(sigma_prime, dtype=float)
    out = s_typ / (math.pi * (s_typ ** 2 + x ** 2))
    return float(out) if np.ndim(sigma_prime) == 0 else out


def sigma_prime_typ(M: int, sigma_star: float) -> float:
    return sigma_star * math.sqrt(4.0 * math.log(M) / math.pi)


# ---------------------------------------------------------------------------
# per-matrix diagnostics: each reads the DownfoldedMatrix's eigensystem, which
# one np.linalg.eigh computes on first use and every later call shares


def _row_blocks(M: int):
    """Slices of at most _ROW_BLOCK rows covering range(M)."""
    return (slice(lo, min(lo + _ROW_BLOCK, M)) for lo in range(0, M, _ROW_BLOCK))


def _off_diagonal_norms(H: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of H without its diagonal entry."""
    out = np.empty(len(H))
    for rows in _row_blocks(len(H)):
        block = H[rows].copy()
        np.fill_diagonal(block[:, rows], 0.0)
        out[rows] = np.linalg.norm(block, axis=1)
    return out


def gamma_samples(matrix: DownfoldedMatrix) -> np.ndarray:
    """Decay rate Gamma_j of every basis state j under e^{-i H t}; nan = censored.

    Every survival curve S_j(t) comes from one spectral product on a shared
    log time grid, 0.1/max spread to 5e4/min spread at _GRID_PER_DECADE
    points per decade, with spread_j the off-diagonal norm of row j of H.
    With the window (hi, lo) = _GAMMA_WINDOW = (0.9, 0.37), t_cross is the
    first grid time with S_j < lo. Site j is censored if spread_j = 0, if
    t_cross > 1e4/spread_j (or S_j never crosses), if S_j >= hi again in
    [t_cross, 5 t_cross] (an oscillation), or if fewer than 3 samples with
    t <= 1.02 t_cross lie in [lo, hi].
    Else Gamma_j is minus the slope of log S_j on those samples, by least
    squares weighted by t, the log grid's spacing; a slope >= 0 is censored.

    The grid is consumed in the time blocks of spectral.spectral_blocks:
    each site carries its t_cross (inf until it crosses), a revival flag, a
    fit-sample count and five t-weighted moments across blocks, so the
    working memory beyond the eigensystem is O(block x M). The loop stops
    once every site is censored or past 5 t_cross, where the rest of the
    grid can change no rate.
    """
    hi, lo = _GAMMA_WINDOW
    vals, vecs = matrix.eigensystem
    spread = _off_diagonal_norms(matrix.matrix)
    coupled = spread > 0.0
    if not coupled.any():
        return np.full(len(vals), math.nan)
    t_lo, t_hi = 0.1 / spread.max(), 5e4 / spread[coupled].min()
    t = np.geomspace(t_lo, t_hi, math.ceil(_GRID_PER_DECADE * math.log10(t_hi / t_lo)) + 1)
    M = len(vals)
    t_cross = np.full(M, math.inf)
    revived = np.zeros(M, dtype=bool)
    count = np.zeros(M, dtype=int)
    w = np.zeros((3, M))  # sums of t, t^2, t^3 over the fit samples
    y = np.zeros((2, M))  # sums of t log S, t^2 log S over the fit samples
    for tb, surv in spectral_blocks(vals, (vecs ** 2).T, t):
        below = surv < lo
        t_cross = np.minimum(t_cross, np.where(below.any(axis=0),
                                               tb[below.argmax(axis=0)], math.inf))
        col = tb[:, None]
        revived |= ((surv >= hi) & (col >= t_cross) & (col <= 5.0 * t_cross)).any(axis=0)
        fit = (col <= 1.02 * t_cross) & (surv >= lo) & (surv <= hi)
        count += fit.sum(axis=0)
        w += np.stack([tb, tb ** 2, tb ** 3]) @ fit.astype(float)
        # S = 1 off the fit samples adds log 1 = 0
        surv[~fit] = 1.0
        y += np.stack([tb, tb ** 2]) @ np.log(surv, out=surv)
        crossed = np.isfinite(t_cross)
        late = np.where(crossed, t_cross, tb[-1]) * spread > 1e4
        if np.all(~coupled | revived | late | (tb[-1] >= 5.0 * t_cross)):
            break  # later samples can neither fit nor revive nor uncensor a site
    ok = coupled & crossed & ~revived & ~late & (count >= 3)
    w0, w1, w2 = w
    y0, y1 = y
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (y1 - w1 * y0 / w0) / (w2 - w1 ** 2 / w0)
    return np.where(ok & (slope < 0), -slope, math.nan)


def site_self_energies(matrix: DownfoldedMatrix, eta: float | None = None) -> np.ndarray:
    """Complex self-energy per site from the diagonal resolvent.

    G_jj(eps_j + i eta) = sum_beta |psi_beta(j)|^2 / (eps_j + i eta - E_beta),
    Sigma_j = Sigma' + i Sigma'' with Sigma' = -Re(1/G_jj) and
    Sigma'' = Im(1/G_jj) - eta. eta defaults to the mean level spacing W/M.
    """
    vals, vecs = matrix.eigensystem
    if eta is None:
        eta = matrix.W / matrix.M
    eps = np.diag(matrix.matrix)
    M = len(vals)
    G = np.empty(M, dtype=complex)
    # every block works in place in these two buffers; fresh temporaries per
    # block ran up to 3x slower at M = 2048, depending on the block size
    w2 = np.empty((min(_ROW_BLOCK, M), M))
    den = np.empty(w2.shape, dtype=complex)
    for rows in _row_blocks(M):
        w, d = w2[:rows.stop - rows.start], den[:rows.stop - rows.start]
        np.subtract((eps[rows] + 1j * eta)[:, None], vals, out=d)
        G[rows] = np.divide(np.square(vecs[rows], out=w), d, out=d).sum(axis=1)
    inv = 1.0 / G
    return -inv.real + 1j * (inv.imag - eta)


def participation_ratios(matrix: DownfoldedMatrix) -> np.ndarray:
    """Omega_beta = 1 / sum_j |psi_beta(j)|^4 for every eigenstate."""
    _, vecs = matrix.eigensystem
    return 1.0 / np.square(np.square(vecs)).sum(axis=0)


# ---------------------------------------------------------------------------
# transfer-time predictions


def pt_scaling_time(n: int, B_perp: float, omega: float) -> float:
    """Asymptotic transfer-time scaling sqrt(2^n/(n Omega log Omega)) e^{2 theta n}
    with unit prefactor."""
    from .downfold import theta

    if omega <= 1.0:
        raise ValueError("needs Omega > 1")
    return math.sqrt(2.0 ** n / (n * omega * math.log(omega))) * math.exp(
        2.0 * theta(B_perp) * n)


@dataclass(frozen=True)
class PTTimePrediction:
    p_window: float
    t_microscopic: float
    sigma_typ: float
    sigma_prime_typ: float
    sigma_star: float
    omega: float
    t_scaling: float | None = None
    t_grover: float | None = None
    theta_factor: float | None = None


def pt_time(config: PBLMConfig, dE_window: float,
            n: int | None = None, B_perp: float | None = None) -> PTTimePrediction:
    """Predicted transfer time into an energy window of width dE_window.

    The microscopic estimate is t = 1/(2 Sigma''_typ p) with
    p = (2/pi) arctan(dE / (2 Sigma'_typ)), the detection probability for
    a Cauchy-distributed level shift centered on the initial state. When
    n and B_perp are given the asymptotic scaling form
    sqrt(2^n / (n Omega log Omega)) e^{2 theta n} and the reference
    sqrt(2^n / Omega) are reported alongside.
    """
    if dE_window <= 0:
        raise ValueError("the energy window must be positive")
    pred = predicted_gamma_law(config)
    s_prime = sigma_prime_typ(config.M, pred.sigma_star)
    p = (2.0 / math.pi) * math.atan(dE_window / (2.0 * s_prime))
    t_micro = 1.0 / (2.0 * pred.sigma_typ * p)
    t_scaling = t_grover = th = None
    if n is not None:
        omega = pred.omega
        t_grover = math.sqrt(2.0 ** n / omega)
        if B_perp is not None:
            from .downfold import theta

            th = theta(B_perp)
            t_scaling = pt_scaling_time(n, B_perp, omega)
    return PTTimePrediction(
        p_window=p, t_microscopic=t_micro, sigma_typ=pred.sigma_typ,
        sigma_prime_typ=s_prime, sigma_star=pred.sigma_star, omega=pred.omega,
        t_scaling=t_scaling, t_grover=t_grover, theta_factor=th,
    )
