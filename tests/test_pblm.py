import math
import tracemalloc

import numpy as np
import pytest

from pt_lab import pblm
from pt_lab.downfold import DownfoldedMatrix
from pt_lab.pblm import (GammaLawPrediction, LevyStableParams,
                         MinibandDiagnostics, PBLMConfig, cauchy_shift_pdf,
                         classify_phase, diagnose_matrix, extract_gamma,
                         fit_stable_quantiles, gamma_samples, mu_omega,
                         omega_predicted, participation_ratios,
                         predicted_gamma_law, pt_scaling_time, pt_time,
                         sample_pblm, sigma_omega, sigma_prime_typ,
                         site_self_energies, stable_pdf, stable_sample,
                         _GRID_PER_DECADE, _standard_pdf, _standard_quantiles)
from pt_lab.statevector import spectral_propagation

REF = PBLMConfig(M=1024, gamma=1.5, lam=1.0)


# ---------------------------------------------------------------- config

def test_config_width():
    assert REF.W == pytest.approx(181.01933598375617, rel=1e-12)
    assert PBLMConfig(M=64, gamma=2.0, lam=0.5).W == pytest.approx(32.0)


def test_config_validation():
    with pytest.raises(ValueError):
        PBLMConfig(M=1, gamma=1.5, lam=1.0)
    with pytest.raises(ValueError):
        PBLMConfig(M=8, gamma=-0.1, lam=1.0)
    with pytest.raises(ValueError):
        PBLMConfig(M=8, gamma=1.5, lam=0.0)


# ---------------------------------------------------------------- sampling

def test_sample_pblm_structure():
    cfg = PBLMConfig(M=96, gamma=1.5, lam=1.0)
    mat = sample_pblm(cfg, seed=2)
    H = mat.matrix
    assert H.shape == (96, 96)
    np.testing.assert_allclose(H, H.T, atol=0)
    assert np.max(np.abs(np.diag(H))) <= cfg.W / 2
    iu = np.triu_indices(96, k=1)
    off = H[iu]
    # |off| = V_typ e^{u/2} with u >= 0, so V_typ floors the magnitude
    assert np.min(np.abs(off)) >= cfg.V_typ_unit - 1e-15
    # random signs are balanced
    assert abs(np.mean(np.sign(off))) < 0.1
    assert mat.V_typ == cfg.V_typ_unit
    assert mat.W == pytest.approx(cfg.W)
    again = sample_pblm(cfg, seed=2)
    np.testing.assert_allclose(again.matrix, H, atol=0)


def test_sample_pblm_heavy_tail_exponent():
    # log(x/V_typ) = u/2 with u ~ Gamma(1/2, 1): the mean of u is 1/2
    cfg = PBLMConfig(M=256, gamma=1.0, lam=1.0)
    H = sample_pblm(cfg, seed=0).matrix
    u = 2.0 * np.log(np.abs(H[np.triu_indices(256, k=1)]))
    assert np.mean(u) == pytest.approx(0.5, abs=0.02)
    assert np.var(u) == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------- phases

def test_classify_phase():
    mk = lambda g: PBLMConfig(M=128, gamma=g, lam=1.0)
    assert classify_phase(mk(0.5)) == "ergodic"
    assert classify_phase(mk(1.5)) == "non_ergodic_delocalized"
    assert classify_phase(mk(2.5)) == "localized"
    assert classify_phase(mk(1.0)) == "boundary"
    assert classify_phase(mk(2.0)) == "boundary"


def test_omega_predicted():
    assert omega_predicted(REF) == pytest.approx(315.82734083485948, rel=1e-12)
    cfg = PBLMConfig(M=256, gamma=1.25, lam=np.pi)
    assert omega_predicted(cfg) == pytest.approx(256.0 ** 0.75, rel=1e-12)
    cfg2 = PBLMConfig(M=512, gamma=2.0, lam=2.0)
    assert omega_predicted(cfg2) == pytest.approx((np.pi / 2.0) ** 2, rel=1e-12)


def test_sigma_and_mu_omega():
    om = float(np.exp(np.pi / 4.0))
    assert sigma_omega(om) == pytest.approx(1.0, rel=1e-12)
    assert mu_omega(om) == pytest.approx(1.2691528671709654, rel=1e-10)
    assert sigma_omega(1000.0) < sigma_omega(100.0) < sigma_omega(10.0)
    with pytest.raises(ValueError):
        sigma_omega(1.0)
    with pytest.raises(ValueError):
        mu_omega(0.5)


def test_predicted_gamma_law_reference_point():
    pred = predicted_gamma_law(REF)
    assert isinstance(pred, GammaLawPrediction)
    assert pred.omega == pytest.approx(315.82734083485948, rel=1e-12)
    assert pred.sigma_star == pytest.approx(17.771531752633465, rel=1e-12)
    assert pred.sigma_typ == pytest.approx(49.874196607356261, rel=1e-10)
    assert pred.scale == pytest.approx(6.5650759618913366, rel=1e-10)
    assert pred.gamma_typ == pytest.approx(37.783296778631276, rel=1e-10)


def test_sigma_star_homogeneous_in_coupling():
    # sigma_star = pi V_typ^2 / (W/M) with W itself proportional to
    # V_typ, so the net scaling is linear; note W/M = pi with V_typ = 1
    # forces Omega = 1 exactly, which the prediction rightly rejects
    scaled = PBLMConfig(M=1024, gamma=1.5, lam=1.0, V_typ_unit=3.0)
    assert predicted_gamma_law(scaled).sigma_star == pytest.approx(
        3.0 * predicted_gamma_law(REF).sigma_star, rel=1e-12)
    boundary = PBLMConfig(M=64, gamma=1.0, lam=8.0 * np.pi)
    with pytest.raises(ValueError):
        predicted_gamma_law(boundary)


# ---------------------------------------------------------------- stable law

def test_stable_pdf_cauchy_case():
    x = np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
    params = LevyStableParams(alpha=1.0, beta=0.0, C=1.0, shift=0.0)
    np.testing.assert_allclose(stable_pdf(x, params),
                               1.0 / (np.pi * (1.0 + x**2)), rtol=1e-5)
    assert stable_pdf(0.0, params) == pytest.approx(1.0 / np.pi, rel=1e-6)


def test_stable_pdf_skewed_reference_values():
    # reference points from an independent evaluation of the same
    # characteristic function (scipy levy_stable, S1 parameterization)
    x = np.array([-0.5, 0.0, 0.5, 1.0, 2.0, 5.0])
    want = np.array([0.28297930, 0.26224013, 0.21231847,
                     0.16353124, 0.09552423, 0.02655890])
    params = LevyStableParams(alpha=1.0, beta=1.0, C=1.0, shift=0.0)
    np.testing.assert_allclose(stable_pdf(x, params), want, atol=2e-7)


def test_stable_pdf_affine_map():
    params = LevyStableParams(alpha=1.0, beta=1.0, C=2.5, shift=-3.0)
    std = LevyStableParams(alpha=1.0, beta=1.0, C=1.0, shift=0.0)
    x = np.array([-4.0, -3.0, 0.0, 4.0])
    np.testing.assert_allclose(stable_pdf(x, params),
                               stable_pdf((x + 3.0) / 2.5, std) / 2.5,
                               rtol=1e-10)


def test_stable_pdf_normalizes():
    core = np.linspace(-6.0, 30.0, 7201)
    tail = np.geomspace(30.0, 400.0, 1601)
    total = (np.trapezoid(_standard_pdf(core, 1.0), core)
             + np.trapezoid(_standard_pdf(tail, 1.0), tail)
             + 2.0 / (np.pi * 400.0))
    assert total == pytest.approx(1.0, abs=1e-4)


def test_stable_pdf_right_tail_index_one():
    # CCDF ~ 2/(pi x) for beta = 1 translates to pdf ~ 2/(pi x^2)
    x = np.array([80.0, 160.0, 320.0])
    p = _standard_pdf(x, 1.0)
    np.testing.assert_allclose(p, 2.0 / (np.pi * x**2), rtol=0.06)


def test_stable_pdf_left_tail_is_double_exponential():
    # log(-log pdf) grows linearly with |x| at rate approaching pi/2;
    # double precision limits the usable window
    x = np.array([-1.0, -1.25, -1.5, -1.75, -2.0])
    p = _standard_pdf(x, 1.0)
    slope = np.polyfit(x, np.log(-np.log(p)), 1)[0]
    assert slope == pytest.approx(-np.pi / 2.0, rel=0.3)
    # and already an order of magnitude below the symmetric Cauchy value
    assert p[-1] < 1.0 / (np.pi * (1 + 4.0)) * 0.2


def test_stable_params_validation():
    with pytest.raises(ValueError):
        LevyStableParams(alpha=2.5, beta=0.0, C=1.0, shift=0.0)
    with pytest.raises(ValueError):
        LevyStableParams(alpha=1.0, beta=1.5, C=1.0, shift=0.0)
    with pytest.raises(ValueError):
        LevyStableParams(alpha=1.0, beta=0.0, C=-1.0, shift=0.0)
    with pytest.raises(ValueError):
        stable_pdf(0.0, LevyStableParams(alpha=1.8, beta=0.0, C=1.0,
                                         shift=0.0))
    with pytest.raises(ValueError):
        fit_stable_quantiles(np.arange(100.0), beta=1.5)


def test_standard_quantiles_match_external_evaluation():
    # scipy levy_stable.ppf at (0.25, 0.5, 0.75), frozen
    got = _standard_quantiles(1.0)
    want = (-0.41776476405072027, 0.5756301439450777, 2.5508156828204567)
    np.testing.assert_allclose(got, want, atol=1e-3)
    cau = _standard_quantiles(0.0)
    np.testing.assert_allclose(cau, (-1.0, 0.0, 1.0), atol=1e-3)


@pytest.mark.parametrize("beta", [1.0, 0.5, -0.5])
def test_stable_sample_matches_quantiles(beta):
    # the Chambers-Mallows-Stuck sampler and the quantile lookup are
    # independent implementations of the same law
    params = LevyStableParams(alpha=1.0, beta=beta, C=1.0, shift=0.0)
    s = stable_sample(params, 200_000, seed=1)
    got = np.percentile(s, [25.0, 50.0, 75.0])
    np.testing.assert_allclose(got, _standard_quantiles(beta), atol=0.02)
    assert np.array_equal(s, stable_sample(params, 200_000, seed=1))


def test_fit_recovers_affine_parameters():
    params = LevyStableParams(alpha=1.0, beta=1.0, C=3.0, shift=5.0)
    s = stable_sample(params, 150_000, seed=7)
    fit = fit_stable_quantiles(s, beta=1.0)
    assert fit.C == pytest.approx(3.0, rel=0.02)
    assert fit.shift == pytest.approx(5.0, abs=0.1)


def test_fit_cross_checks_external_sampler():
    # samples drawn by scipy's independent implementation fit to the
    # standard parameters under our quantile matcher
    from scipy.stats import levy_stable
    s = levy_stable.rvs(1.0, 1.0, size=100_000,
                        random_state=np.random.default_rng(3))
    fit = fit_stable_quantiles(s, beta=1.0)
    assert fit.C == pytest.approx(1.0, rel=0.03)
    assert abs(fit.shift) < 0.05


def test_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        fit_stable_quantiles(np.arange(5.0))


# ------------------------------------------------- Nolan integral vs scipy
# scipy.stats.levy_stable is a test-only reference: the package evaluates
# the law from Nolan's finite-interval integral and never imports it

TAIL_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)


@pytest.mark.parametrize("beta", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_standard_quantiles_match_scipy_ppf(beta):
    from scipy.stats import levy_stable
    np.testing.assert_allclose(_standard_quantiles(beta, TAIL_PROBS),
                               levy_stable.ppf(TAIL_PROBS, 1.0, beta),
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_standard_quantiles_reflect_with_beta(beta):
    # q(p; -beta) = -q(1 - p; beta)
    mirrored = _standard_quantiles(beta, tuple(1.0 - p for p in TAIL_PROBS))
    np.testing.assert_allclose(_standard_quantiles(-beta, TAIL_PROBS),
                               -np.array(mirrored), rtol=0, atol=1e-12)


@pytest.mark.parametrize("beta", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_standard_pdf_matches_scipy_pdf(beta):
    from scipy.stats import levy_stable
    x = np.linspace(-2.0, 20.0, 89)
    np.testing.assert_allclose(_standard_pdf(x, beta),
                               levy_stable.pdf(x, 1.0, beta), rtol=0, atol=1e-8)


def test_standard_pdf_far_right_tail():
    # past the range where scipy's density is reliable, against 2/(pi x^2)
    x = np.array([320.0, 640.0])
    np.testing.assert_allclose(_standard_pdf(x, 1.0), 2.0 / (np.pi * x**2),
                               rtol=0.05)


def test_ensemble_cli_runs_without_scipy_stats(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pt_lab

    src = str(Path(pt_lab.__file__).resolve().parents[1])
    probe = ("import sys; from pt_lab.cli import main; rc = main(sys.argv[1:]); "
             "print(rc, 'scipy.stats' in sys.modules)")
    runs = [["pblm-ensemble", "--m", "64", "--gamma", "1.5",
             "--realizations", "2"],
            ["stats-fit", "--input", str(tmp_path / "pblm_sites.csv"),
             "--positive-only"]]
    for argv in runs:
        done = subprocess.run([sys.executable, "-c", probe, "--out-dir",
                               str(tmp_path), *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src},
                              check=True)
        assert done.stdout.splitlines()[-1] == "0 False", done.stderr


# ---------------------------------------------------------------- shifts

def test_cauchy_shift_pdf_shape():
    M, sstar = 1024, 17.771531752633465
    typ = sigma_prime_typ(M, sstar)
    assert typ == pytest.approx(52.794982674384985, rel=1e-10)
    peak = cauchy_shift_pdf(0.0, M, sstar)
    assert peak == pytest.approx(1.0 / (np.pi * typ), rel=1e-10)
    # half width at half maximum equals the typical shift
    assert cauchy_shift_pdf(typ, M, sstar) == pytest.approx(peak / 2.0,
                                                            rel=1e-10)


# ---------------------------------------------------------------- decay fits

def _flat_band_matrix(M=512, V_scale=0.4, span=2.0):
    delta = span / M
    V = V_scale * delta
    H = np.zeros((M, M))
    d = (np.arange(M - 1) - (M - 2) / 2) * delta
    H[1:, 1:][np.diag_indices(M - 1)] = d
    H[0, 1:] = V
    H[1:, 0] = V
    return DownfoldedMatrix(matrix=H, V_typ=V, W=span), V, delta


def test_extract_gamma_golden_rule():
    mat, V, delta = _flat_band_matrix()
    got = extract_gamma(mat, 0)
    want = 2.0 * np.pi * V**2 / delta
    assert got == pytest.approx(want, rel=0.3)


def test_extract_gamma_shift_invariant():
    mat, _, _ = _flat_band_matrix(M=256)
    base = extract_gamma(mat, 0)
    shifted = DownfoldedMatrix(matrix=mat.matrix + 3.7 * np.eye(256),
                               V_typ=mat.V_typ, W=mat.W)
    # invariant up to eigensolver reproducibility
    assert extract_gamma(shifted, 0) == pytest.approx(base, rel=1e-9)


def test_two_level_rabi_is_censored():
    H = np.array([[0.0, 0.3], [0.3, 0.0]])
    mat = DownfoldedMatrix(matrix=H, V_typ=0.3, W=1.0)
    assert np.isnan(extract_gamma(mat, 0))


def test_diagonal_matrix_is_censored():
    mat = DownfoldedMatrix(matrix=np.diag([0.1, 0.5, -0.2]), V_typ=1.0,
                           W=1.0)
    g = gamma_samples(mat)
    assert g.shape == (3,)
    assert np.all(np.isnan(g))


def _survival(vals, w, t):
    return np.abs(np.exp(-1j * np.outer(t, vals)) @ w) ** 2


def _per_site_gamma(vals, w, window=(0.9, 0.37)):
    # the decay-fit rules for one site on uniform grids: double the search
    # range from 1/spread until the survival drops below lo (giving up past
    # 1e4/spread), censor a revival to >= hi in [t_cross, 5 t_cross], then
    # fit log S against t where lo <= S <= hi on 800 points up to 1.02 t_cross
    hi, lo = window
    spread = np.sqrt(w @ (vals - w @ vals) ** 2)
    t_hi = 1.0 / spread
    while True:
        if t_hi > 1e4 / spread:
            return np.nan
        t = np.linspace(0.0, t_hi, 256)
        below = np.nonzero(_survival(vals, w, t) < lo)[0]
        if len(below):
            t_cross = t[below[0]]
            break
        t_hi *= 2.0
    if np.any(_survival(vals, w, np.linspace(t_cross, 5.0 * t_cross, 200)) >= hi):
        return np.nan
    t = np.linspace(0.0, 1.02 * t_cross, 800)
    s = _survival(vals, w, t)
    keep = (s >= lo) & (s <= hi)
    if keep.sum() < 3:
        return np.nan
    slope = np.polyfit(t[keep], np.log(s[keep]), 1)[0]
    return -slope if slope < 0 else np.nan


# seed 5 has two censored sites, seed 0 none
@pytest.mark.parametrize("seed", [0, 5])
def test_gamma_samples_match_per_site_reference(seed):
    mat = sample_pblm(PBLMConfig(M=64, gamma=1.5, lam=1.0), seed=seed)
    vals, vecs = np.linalg.eigh(mat.matrix)
    want = np.array([_per_site_gamma(vals, vecs[j] ** 2) for j in range(64)])
    got = gamma_samples(mat)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=0.01)


def test_uncoupled_site_is_censored_and_leaves_the_rest_alone():
    block = sample_pblm(PBLMConfig(M=64, gamma=1.5, lam=1.0), seed=2).matrix
    H = np.insert(np.insert(block, 17, 0.0, axis=0), 17, 0.0, axis=1)
    H[17, 17] = 0.3
    got = gamma_samples(H)
    assert np.isnan(got[17])
    np.testing.assert_allclose(np.delete(got, 17), gamma_samples(block),
                               rtol=1e-9)


def _log_grid(H):
    spread = np.linalg.norm(H - np.diag(np.diag(H)), axis=1)
    t_lo, t_hi = 0.1 / spread.max(), 5e4 / spread[spread > 0].min()
    return spread, np.geomspace(
        t_lo, t_hi, math.ceil(_GRID_PER_DECADE * math.log10(t_hi / t_lo)) + 1)


def _whole_grid_gamma(H, window=(0.9, 0.37)):
    # the same fit on the whole (T, M) survival table at once
    hi, lo = window
    vals, vecs = np.linalg.eigh(H)
    spread, t = _log_grid(H)
    surv = spectral_propagation(vals, (vecs ** 2).T, t)
    below = surv < lo
    t_cross = t[below.argmax(axis=0)]
    ok = (spread > 0) & below.any(axis=0) & (t_cross * spread <= 1e4)
    col = t[:, None]
    ok &= ~((surv >= hi) & (col >= t_cross) & (col <= 5.0 * t_cross)).any(axis=0)
    fit = (col <= 1.02 * t_cross) & (surv >= lo) & (surv <= hi)
    w0, w1, w2 = np.stack([t, t ** 2, t ** 3]) @ fit.astype(float)
    surv[~fit] = 1.0
    y0, y1 = np.stack([t, t ** 2]) @ np.log(surv)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (y1 - w1 * y0 / w0) / (w2 - w1 ** 2 / w0)
    return np.where(ok & (fit.sum(axis=0) >= 3) & (slope < 0), -slope, np.nan)


@pytest.mark.parametrize("M", [64, 192])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("gamma", [1.2, 1.5, 1.8])
def test_streamed_decay_fits_match_whole_grid_fit(M, seed, gamma):
    mat = sample_pblm(PBLMConfig(M=M, gamma=gamma, lam=1.0), seed=seed)
    got, want = gamma_samples(mat), _whole_grid_gamma(mat.matrix)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_decay_fits_stop_once_every_site_is_settled(monkeypatch):
    consumed = []
    blocks = pblm.spectral_blocks

    def counting(*args):
        for tb, surv in blocks(*args):
            consumed.append(len(tb))
            yield tb, surv

    monkeypatch.setattr(pblm, "spectral_blocks", counting)
    mat = sample_pblm(PBLMConfig(M=64, gamma=1.5, lam=1.0), seed=0)
    got = gamma_samples(mat)
    assert 0 < sum(consumed) < len(_log_grid(mat.matrix)[1]) / 2
    np.testing.assert_allclose(got, _whole_grid_gamma(mat.matrix), rtol=1e-12)


def test_late_crossing_site_keeps_its_rate():
    # a far-detuned partner sets site 0's spread and the band its decay, so
    # S_0 crosses lo near t = 3000 / spread: late, but inside 1e4 / spread
    band, V, delta = _flat_band_matrix()
    H = np.pad(band.matrix, (0, 1))
    H[0, -1] = H[-1, 0] = 12.0
    H[-1, -1] = 1e4
    got = gamma_samples(H)
    assert np.linalg.norm(H[0, 1:]) / got[0] > 1e3
    assert got[0] == pytest.approx(2.0 * np.pi * V ** 2 / delta, rel=0.05)
    want = _whole_grid_gamma(H)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_site_with_two_fit_samples_is_censored():
    # on the flat band's exponential decay the narrow window (0.5, 0.495)
    # holds two grid samples of site 0 before it crosses: a slope exists,
    # but the rule asks for three; the window (0.5, 0.49) holds three
    band, _, _ = _flat_band_matrix(M=32, V_scale=0.5)
    H = band.matrix
    vals, vecs = np.linalg.eigh(H)
    t = _log_grid(H)[1]
    surv = _survival(vals, vecs[0] ** 2, t)
    hi, lo = 0.5, 0.495
    t_cross = t[np.argmax(surv < lo)]
    assert np.sum((t <= 1.02 * t_cross) & (surv >= lo) & (surv <= hi)) == 2
    assert np.isnan(gamma_samples(H, (hi, lo))[0])
    assert np.isfinite(gamma_samples(H, (hi, 0.49))[0])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decay_fits_hold_no_survival_table():
    M = 512
    mat = sample_pblm(PBLMConfig(M=M, gamma=1.5, lam=1.0), seed=0)
    mat.eigensystem
    T = len(_log_grid(mat.matrix)[1])
    assert _traced_peak(gamma_samples, mat) < T * M * 8


# ---------------------------------------------------------------- resolvent

def test_self_energies_hold_no_square_temporary():
    M = 512
    mat = sample_pblm(PBLMConfig(M=M, gamma=1.5, lam=1.0), seed=0)
    mat.eigensystem
    assert _traced_peak(site_self_energies, mat) < M * M * 16


@pytest.mark.parametrize("eta", [None, 0.3])
def test_row_blocked_self_energies_equal_unblocked_expression(eta):
    mat = sample_pblm(PBLMConfig(M=200, gamma=1.5, lam=1.0), seed=3)
    vals, vecs = mat.eigensystem
    e = mat.W / mat.M if eta is None else eta
    G = (vecs ** 2 / ((np.diag(mat.matrix) + 1j * e)[:, None] - vals[None, :])).sum(axis=1)
    want = -(1.0 / G).real + 1j * ((1.0 / G).imag - e)
    np.testing.assert_array_equal(site_self_energies(mat, eta), want)


def test_site_self_energies_two_level_analytic():
    a, b, v, eta = 0.2, -0.4, 0.05, 0.01
    H = np.array([[a, v], [v, b]])
    mat = DownfoldedMatrix(matrix=H, V_typ=v, W=1.0)
    sig = site_self_energies(mat, eta=eta)
    D = (a - b) ** 2 + eta**2
    assert sig[0].real == pytest.approx(v**2 * (a - b) / D, rel=1e-10)
    assert sig[0].imag == pytest.approx(v**2 * eta / D, rel=1e-10)


def test_self_energy_width_positive():
    cfg = PBLMConfig(M=128, gamma=1.5, lam=1.0)
    mat = sample_pblm(cfg, seed=5)
    sig = site_self_energies(mat)
    assert sig.shape == (128,)
    assert np.all(sig.imag > 0)


def test_participation_ratio_limits():
    mat = DownfoldedMatrix(matrix=np.diag([0.3, -0.1, 0.7]), V_typ=1.0,
                           W=1.0)
    np.testing.assert_allclose(participation_ratios(mat), 1.0, atol=1e-12)
    H = np.array([[0.0, 0.3], [0.3, 0.0]])
    two = DownfoldedMatrix(matrix=H, V_typ=0.3, W=1.0)
    np.testing.assert_allclose(participation_ratios(two), 2.0, atol=1e-12)


def test_one_eigendecomposition_per_matrix(monkeypatch):
    mat = sample_pblm(PBLMConfig(M=48, gamma=1.5, lam=1.0), seed=4)
    fresh = lambda: DownfoldedMatrix(matrix=mat.matrix.copy(), V_typ=mat.V_typ,
                                     W=mat.W)
    want = (site_self_energies(fresh()), participation_ratios(fresh()),
            gamma_samples(fresh()))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(1) or eigh(a))
    got = (site_self_energies(mat), participation_ratios(mat),
           gamma_samples(mat))
    assert len(calls) == 1
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_diagnose_matrix_fields():
    cfg = PBLMConfig(M=96, gamma=1.5, lam=1.0)
    mat = sample_pblm(cfg, seed=1)
    diag = diagnose_matrix(mat)
    assert isinstance(diag, MinibandDiagnostics)
    assert diag.omegas.shape == (96,)
    assert np.all(diag.omegas >= 1.0 - 1e-9)
    assert np.all(diag.omegas <= 96.0 + 1e-9)
    assert 0.0 <= diag.censored_fraction <= 1.0


# ---------------------------------------------------------------- PT time

def test_pt_scaling_time_value():
    assert pt_scaling_time(20, 2.0, 100.0) == pytest.approx(
        145.76767632400469, rel=1e-10)
    with pytest.raises(ValueError):
        pt_scaling_time(20, 2.0, 1.0)


def test_pt_time_window_probability():
    pred = pt_time(REF, dE_window=2.0 * sigma_prime_typ(
        1024, predicted_gamma_law(REF).sigma_star))
    assert pred.p_window == pytest.approx(0.5, rel=1e-10)
    assert pred.t_microscopic == pytest.approx(
        1.0 / (2.0 * pred.sigma_typ * 0.5), rel=1e-10)
    assert pred.omega == pytest.approx(315.82734083485948, rel=1e-10)


def test_pt_time_reports_scaling_when_sized():
    pred = pt_time(REF, dE_window=10.0, n=20, B_perp=2.0)
    assert pred.t_scaling == pytest.approx(
        pt_scaling_time(20, 2.0, omega_predicted(REF)), rel=1e-12)
    assert pred.t_grover == pytest.approx(
        np.sqrt(2.0**20 / omega_predicted(REF)), rel=1e-12)
