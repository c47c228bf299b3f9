import warnings

import numpy as np
import pytest

from pt_lab.cli import _simulated_peak
from pt_lab.grover import (GroverErrorReport, GroverSetup,
                           build_reduced_hamiltonian, error_time_report,
                           gamma_0, grover_time, peak_transfer,
                           perturbative_transfer, projector_hamiltonian_dense,
                           pt_time_with_error, reduced_transfer)


def test_grover_time_values():
    assert grover_time(10, 4, 1.0) == pytest.approx(0.8 * np.pi, rel=1e-12)
    # halving the field doubles the period; quadrupling M halves it
    assert grover_time(10, 4, 0.5) == pytest.approx(1.6 * np.pi, rel=1e-12)
    assert grover_time(10, 16, 1.0) == pytest.approx(0.4 * np.pi, rel=1e-12)


def test_setup_derived_quantities():
    setup = GroverSetup(n=12, eps=np.array([0.1, -0.2, 0.05]), eps0=1.2)
    assert setup.M == 3
    assert setup.N == 4096
    assert setup.V == pytest.approx(12 * 2.0**-6)
    assert setup.W == pytest.approx(0.3)
    assert setup.B_perp == pytest.approx(1.0 - 1.2 / 12.0)


def test_setup_validation():
    with pytest.raises(ValueError):
        GroverSetup(n=2, eps=np.zeros(4), eps0=0.0)
    with pytest.raises(ValueError):
        GroverSetup(n=10, eps=np.zeros(3), eps0=0.0, marked=(1, 2))


def test_reduced_hamiltonian_structure():
    setup = GroverSetup(n=8, eps=np.array([0.2, -0.1]), eps0=0.6)
    H = build_reduced_hamiltonian(setup)
    assert H.shape == (3, 3)
    np.testing.assert_allclose(H, H.T, atol=0)
    assert H[0, 0] == pytest.approx(0.6)
    np.testing.assert_allclose(H[0, 1:], -setup.V)
    np.testing.assert_allclose(np.diag(H)[1:], [0.2, -0.1])
    assert H[1, 2] == 0.0


def test_degenerate_band_oscillates_at_grover_frequency():
    # with all marked energies equal and no driver error the transfer is
    # exactly sin^2(sqrt(M) V t), peaking at the Grover time
    setup = GroverSetup(n=10, eps=np.zeros(4), eps0=0.0)
    tg = grover_time(10, 4, 1.0)
    t = np.linspace(0.0, 1.2 * tg, 601)
    p = reduced_transfer(setup, t)
    np.testing.assert_allclose(p, np.sin(2.0 * setup.V * t) ** 2, atol=1e-12)
    assert p.max() == pytest.approx(1.0, abs=1e-12)
    assert t[p.argmax()] == pytest.approx(tg, rel=1e-3)


def test_reduced_matches_dense_projector_model():
    marked = (3, 17, 200, 900)
    setup = GroverSetup(n=10, eps=np.zeros(4), eps0=0.0, marked=marked)
    H = projector_hamiltonian_dense(setup)
    assert H.shape == (1024, 1024)
    # rank-one driver: every off-diagonal entry is -nB/N
    assert H[0, 1] == pytest.approx(-10.0 / 1024.0)
    assert H[5, 999] == pytest.approx(-10.0 / 1024.0)
    assert H[17, 17] == pytest.approx(-10.0 - 10.0 / 1024.0)
    vals, vecs = np.linalg.eigh(H)
    plus = np.full(1024, 1.0 / 32.0)
    c = vecs.T @ plus
    t = np.linspace(0.0, 1.2 * grover_time(10, 4, 1.0), 241)
    phases = np.exp(-1j * np.outer(t, vals))
    amps = phases * c
    pm = np.array([np.sum(np.abs((vecs @ a)[list(marked)]) ** 2)
                   for a in amps])
    pr = reduced_transfer(setup, t)
    assert np.sqrt(np.mean((pm - pr) ** 2)) < 0.01


def test_projector_model_needs_marked_labels():
    setup = GroverSetup(n=10, eps=np.zeros(4), eps0=0.0)
    with pytest.raises(ValueError):
        projector_hamiltonian_dense(setup)


def test_perturbative_transfer_formula():
    rng = np.random.default_rng(2)
    setup = GroverSetup(n=14, eps=rng.uniform(-0.3, 0.3, 64), eps0=6.0)
    t = np.linspace(0.01, 2.0, 57)
    got = perturbative_transfer(t, setup)
    W = setup.W
    want = (2.0 * 64 * setup.V**2 / 36.0) * (
        1.0 - np.cos(6.0 * t) * np.sinc(W * t / (2.0 * np.pi)))
    np.testing.assert_allclose(got, np.clip(want, 0.0, 1.0), rtol=1e-12)
    with pytest.raises(ValueError):
        perturbative_transfer(t, GroverSetup(n=14, eps=np.zeros(4), eps0=0.0))


def test_perturbative_matches_exact_at_small_time():
    rng = np.random.default_rng(5)
    setup = GroverSetup(n=12, eps=rng.uniform(-0.05, 0.05, 16), eps0=4.0)
    t = np.linspace(0.005, 0.05, 10)
    exact = reduced_transfer(setup, t)
    pert = perturbative_transfer(t, setup)
    np.testing.assert_allclose(pert, exact, rtol=0.05)


def test_peak_transfer_point():
    rng = np.random.default_rng(2)
    setup = GroverSetup(n=14, eps=rng.uniform(-0.3, 0.3, 64), eps0=6.0)
    t0, p0 = peak_transfer(setup)
    assert t0 == pytest.approx(np.pi / 6.0, rel=1e-12)
    assert p0 == pytest.approx(0.08506944444444445, rel=1e-12)


def test_peak_probability_clamped():
    setup = GroverSetup(n=8, eps=np.zeros(16), eps0=0.05)
    _, p0 = peak_transfer(setup)
    assert p0 == 1.0


def test_gamma0_and_pt_time():
    rng = np.random.default_rng(2)
    setup = GroverSetup(n=14, eps=rng.uniform(-0.3, 0.3, 64), eps0=6.0)
    W = setup.W
    assert gamma_0(setup) == pytest.approx(2 * np.pi * setup.V**2 * 64 / W,
                                           rel=1e-12)
    assert pt_time_with_error(setup) == pytest.approx(
        np.pi**2 * 6.0 / (W * gamma_0(setup)), rel=1e-12)


def test_error_time_report_fields():
    rng = np.random.default_rng(2)
    setup = GroverSetup(n=14, eps=rng.uniform(-0.3, 0.3, 64), eps0=6.0)
    rep = error_time_report(setup)
    assert isinstance(rep, GroverErrorReport)
    assert rep.in_regime is True
    assert rep.t_grover == pytest.approx(np.pi, rel=1e-12)
    assert rep.t_degraded == pytest.approx(rep.t_grover**2 * 6.0, rel=1e-12)
    assert rep.t_pt == pytest.approx(12.309914071208985, rel=1e-10)
    assert rep.t0 == pytest.approx(np.pi / 6.0)
    assert rep.p0 == pytest.approx(0.08506944444444445)


def test_in_regime_reads_eps0_against_five_w():
    rng = np.random.default_rng(0)
    eps = rng.uniform(-0.3, 0.3, 16)
    W = eps.max() - eps.min()
    for factor, want in [(2.0, False), (4.99, False), (5.0, True), (10.0, True)]:
        rep = error_time_report(GroverSetup(n=10, eps=eps, eps0=factor * W))
        assert rep.in_regime is want, factor


def test_out_of_regime_forms_return_values_without_warning():
    # eps0 = 4 W lies below the regime; the forms return their values,
    # bit for bit as they did while they warned, and warn nothing
    rng = np.random.default_rng(0)
    eps = rng.uniform(-0.3, 0.3, 64)
    setup = GroverSetup(n=14, eps=eps, eps0=4.0 * (eps.max() - eps.min()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0, p0 = peak_transfer(setup)
        rep = error_time_report(setup)
    assert (t0, p0) == (1.316274044795355, 0.5376120412164382)
    assert (rep.t_pt, rep.gamma0, rep.t_grover, rep.t_degraded, rep.p0,
            rep.t0) == (4.896743167497001, 8.062178524371548,
                        2.1641401910876223, 11.178263328256508,
                        0.5376120412164382, 1.316274044795355)
    assert rep.in_regime is False


def _exponential_transfer(setup, times):
    # the marked population from the complex-exponential product, the
    # independent reference for reduced_transfer's spectral sums
    vals, vecs = np.linalg.eigh(build_reduced_hamiltonian(setup))
    amp = vecs @ (np.exp(-1j * np.outer(vals, times)) * vecs[0][:, None])
    return (np.abs(amp[1:]) ** 2).sum(axis=0)


def _peak_setups():
    rng = np.random.default_rng(2)
    # acceptance 7's setup first, then seeded random ones
    yield GroverSetup(n=14, eps=rng.uniform(-0.3, 0.3, size=64), eps0=6.0)
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n, M = int(rng.integers(8, 20)), int(rng.integers(1, 40))
        W = float(rng.uniform(0.05, 1.0))
        eps0 = (0.0, 0.5, 3.0)[seed % 3]
        yield GroverSetup(n=n, eps=rng.uniform(-W / 2, W / 2, size=M), eps0=eps0)


@pytest.mark.parametrize("setup", list(_peak_setups()))
def test_reduced_transfer_matches_the_exponential_form(setup):
    t_hi = (2.0 * np.pi / setup.eps0 if setup.eps0
            else 4.0 * grover_time(setup.n, setup.M))
    times = np.linspace(0.0, t_hi, 4001)
    want = _exponential_transfer(setup, times)
    np.testing.assert_allclose(reduced_transfer(setup, times), want,
                               rtol=0, atol=1e-14)
    assert reduced_transfer(setup, t_hi) == pytest.approx(want[-1], abs=1e-14)
    # the grover-sweep peak sits on the same grid point; grover-sweep
    # rejects eps0 <= 0 before it scans
    if setup.eps0 > 0:
        t_peak, p_peak = _simulated_peak(setup)
        assert t_peak == times[int(np.argmax(want))]
        assert p_peak == pytest.approx(want.max(), abs=1e-14)
