"""Workload-level acceptance checks for the full toolkit.

Each numbered check prints one [PASS]/[FAIL] line with the measured
numbers (run with -s to see the lines on success) and then asserts, so a
red run pinpoints which guarantee broke. Checks 2 and 3 compare pooled
finite-size ensembles against asymptotic predictions at the stated
tolerances; the remaining checks are deterministic.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
from scipy.stats import kstest

from pt_lab.cli import main
from pt_lab.downfold import (amplitude_table, build_downfolded, cdf_w, pdf_w,
                             sample_w, theta)
from pt_lab.grover import (GroverSetup, error_time_report, grover_time,
                           reduced_transfer)
from pt_lab.instances import gen_impurity_band, gen_spin_glass
from pt_lab.optimize import enumerate_local_minima
from pt_lab.pblm import (PBLMConfig, classify_phase, fit_stable_quantiles,
                         mu_omega, omega_predicted, participation_ratios,
                         predicted_gamma_law, sample_pblm, sigma_omega,
                         site_self_energies)
from pt_lab.statevector import EvolutionConfig, evolve_trotter, exact_eigs

mp.mp.dps = 40


def _check(label: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def test_01_heavy_tail_sampler_matches_closed_form_cdf():
    t0 = time.monotonic()
    w = sample_w(1000, 100_000, seed=0)
    ks = kstest(w, cdf_w).statistic
    elapsed = time.monotonic() - t0
    ok = ks < 0.05 and elapsed < 10.0
    assert _check("1 heavy-tail sampler",
                  ok, f"KS {ks:.4f} (< 0.05), {elapsed:.2f} s (< 10 s)")


def test_02_pooled_decay_rates_follow_predicted_stable_law():
    config = PBLMConfig(M=1024, gamma=1.5, lam=1.0, V_typ_unit=1.0)
    sigma2 = np.concatenate([site_self_energies(sample_pblm(config, seed=s)).imag
                             for s in range(200)])
    pos = sigma2[sigma2 > 0]
    fit = fit_stable_quantiles(pos)
    pred = predicted_gamma_law(config)

    xs = np.sort(pos)
    ccdf = 1.0 - np.arange(1, len(xs) + 1) / len(xs)
    lo, hi = np.quantile(pos, [0.9, 0.999])
    m = (xs >= lo) & (xs <= hi) & (ccdf > 0)
    slope = np.polyfit(np.log(xs[m]), np.log(ccdf[m]), 1)[0]

    loc_ratio = fit.shift / pred.sigma_typ
    scale_ratio = fit.C / pred.scale
    ok_a = _check("2a decay-rate tail index", abs(slope + 1.0) <= 0.15,
                  f"CCDF log-log slope {slope:.3f} (want -1 +- 0.15)")
    ok_b = _check("2b decay-rate location", abs(loc_ratio - 1.0) <= 0.25,
                  f"fit {fit.shift:.3f} vs predicted {pred.sigma_typ:.3f}, "
                  f"ratio {loc_ratio:.3f} (want 1 +- 0.25)")
    ok_c = _check("2c decay-rate scale", abs(scale_ratio - 1.0) <= 0.25,
                  f"fit {fit.C:.3f} vs predicted {pred.scale:.3f}, "
                  f"ratio {scale_ratio:.3f} (want 1 +- 0.25)")
    assert ok_a and ok_b and ok_c


def test_03_participation_ratio_scaling_exponent():
    medians = {}
    for M, reps in ((512, 4), (1024, 3), (2048, 2)):
        config = PBLMConfig(M=M, gamma=1.5, lam=1.0, V_typ_unit=1.0)
        pooled = np.concatenate([participation_ratios(sample_pblm(config, seed=s))
                                 for s in range(reps)])
        medians[M] = float(np.median(pooled))
    sizes = np.array(sorted(medians))
    exponent = np.polyfit(np.log(sizes),
                          np.log([medians[m] for m in sizes]), 1)[0]
    assert _check("3 support-set scaling", abs(exponent - 0.5) <= 0.2,
                  f"median participation ratios {medians}, "
                  f"exponent {exponent:.3f} (want 0.5 +- 0.2)")


def test_04_phase_classifier_matches_participation_diagnostics():
    labels, medians = {}, {}
    for gamma in (0.5, 1.5, 2.5):
        config = PBLMConfig(M=1024, gamma=gamma, lam=1.0, V_typ_unit=1.0)
        labels[gamma] = classify_phase(config)
        pooled = np.concatenate([participation_ratios(sample_pblm(config, seed=s))
                                 for s in range(3)])
        medians[gamma] = float(np.median(pooled))
    ok = (labels == {0.5: "ergodic", 1.5: "non_ergodic_delocalized",
                     2.5: "localized"}
          and medians[0.5] / 1024 > 0.1
          and medians[2.5] < 3.0)
    assert _check("4 phase boundaries", ok,
                  f"labels {list(labels.values())}, "
                  f"ergodic median/M {medians[0.5] / 1024:.3f} (> 0.1), "
                  f"localized median {medians[2.5]:.2f} (< 3)")


def test_05_downfolded_matrix_reproduces_exact_band():
    t0 = time.monotonic()
    inst = gen_impurity_band(12, 6, 0.5, seed=0, B_perp=2.0)
    vals, vecs = exact_eigs(inst)
    marked = np.fromiter(inst.marked, dtype=np.int64)
    weight = (vecs[marked, :] ** 2).sum(axis=0)
    band = np.sort(vals[np.argsort(weight)[-6:]])
    mat = build_downfolded(inst, "numeric_extraction", seed=0)
    eff = np.sort(np.linalg.eigvalsh(mat.matrix)) + inst.base_energy
    dev = float(np.max(np.abs(band - eff)))
    elapsed = time.monotonic() - t0
    ok = dev <= 0.1 * inst.W and elapsed < 60.0
    assert _check("5 band reconstruction", ok,
                  f"max eigenvalue deviation {dev:.2e} "
                  f"(<= {0.1 * inst.W:.3f}), {elapsed:.0f} s (< 60 s)")


def test_06_degenerate_resonance_matches_grover_time():
    setup = GroverSetup(n=10, eps=np.zeros(4), eps0=0.0)
    t_g = grover_time(10, 4, setup.B_perp)
    times = np.linspace(0.0, 1.2 * t_g, 20001)
    pop = reduced_transfer(setup, times)
    k = int(np.argmax(pop))
    rel = abs(times[k] - t_g) / t_g
    ok = rel <= 1e-3 and pop[k] >= 0.99
    assert _check("6 resonant oscillation", ok,
                  f"half-period off by {rel:.2e} rel (<= 1e-3), "
                  f"peak population {pop[k]:.6f} (>= 0.99)")


def test_07_perturbative_peak_matches_exact_reduced_dynamics():
    rng = np.random.default_rng(2)
    setup = GroverSetup(n=14, eps=rng.uniform(-0.3, 0.3, size=64), eps0=6.0)
    rep = error_time_report(setup)
    times = np.linspace(0.0, 2.0 * math.pi / setup.eps0, 40001)
    pop = reduced_transfer(setup, times)
    k = int(np.argmax(pop))
    t_sim, p_sim = float(times[k]), float(pop[k])
    t_repeat = t_sim / p_sim
    rel_t = abs(t_sim - rep.t0) / rep.t0
    rel_p = abs(p_sim - rep.p0) / rep.p0
    factor = t_repeat / rep.t_pt
    ok = rel_t <= 0.10 and rel_p <= 0.10 and 0.5 <= factor <= 2.0
    assert _check("7 detuned-driver degradation", ok,
                  f"t0 rel err {rel_t:.3f} (<= 0.1), p0 rel err {rel_p:.3f} "
                  f"(<= 0.1), repeated-trial/predicted {factor:.3f} (in [0.5, 2])")


def test_08_trotter_backend_order_and_accuracy():
    inst = gen_spin_glass(10, seed=1)
    records = sorted(enumerate_local_minima(inst), key=lambda r: (r.energy, r.z))
    z0 = records[1].z
    vals, vecs = exact_eigs(inst)
    amp0 = vecs[z0]
    exact = vecs @ (np.exp(-1j * vals * 10.0) * amp0)
    errs = {}
    infidelity = None
    for steps in (75, 150, 300, 600):
        config = EvolutionConfig(total_time=10.0, trotter_steps=steps)
        psi = evolve_trotter(inst, z0, config)
        errs[steps] = float(np.linalg.norm(psi - exact))
        if steps == 300:
            infidelity = 1.0 - abs(np.vdot(exact, psi)) ** 2
    slope = np.polyfit(np.log([10.0 / s for s in errs]),
                       np.log(list(errs.values())), 1)[0]
    ok = infidelity < 1e-3 and abs(slope - 2.0) <= 0.3
    assert _check("8 product-formula backend", ok,
                  f"infidelity {infidelity:.2e} at 300 steps (< 1e-3), "
                  f"convergence slope {slope:.3f} (want 2 +- 0.3)")


def test_09_transfer_pipeline_enriches_low_energy_window(tmp_path):
    run = tmp_path / "dimer"
    assert main(["--out-dir", str(run), "gen-instance", "--kind", "spin-glass",
                 "--n", "16", "--seed", "3"]) == 0
    assert main(["--out-dir", str(run), "pipeline",
                 "--instance", str(run / "instance.json"), "--dt", "0.1",
                 "--start-time", "25", "--max-doublings", "6",
                 "--saturation-rtol", "0.01"]) == 0
    summary = json.loads((run / "pipeline_summary.json").read_text())

    ctrl = tmp_path / "control"
    assert main(["--out-dir", str(ctrl), "gen-instance", "--kind", "spin-glass",
                 "--n", "16", "--seed", "3", "--dimer-count", "0"]) == 0
    assert main(["--out-dir", str(ctrl), "pipeline",
                 "--instance", str(ctrl / "instance.json"), "--dt", "0.1",
                 "--start-time", "25", "--max-doublings", "3",
                 "--saturation-rtol", "0.01"]) == 0
    figs = ("fig_energy_panels.csv", "fig_hamming_from_start.csv",
            "fig_pair_hamming.csv", "fig_enrichment.csv")
    control_ok = all((ctrl / f).exists() for f in figs)

    ok = (summary["window_ratio"] >= 5.0
          and summary["median_hamming_pt"] >= 4.0
          and summary["enriched_minima"] >= 1
          and summary["alternation_contrast"] > 0.0
          and control_ok)
    assert _check("9 end-to-end transfer pipeline", ok,
                  f"window enrichment {summary['window_ratio']:.1f}x (>= 5), "
                  f"median Hamming {summary['median_hamming_pt']:.0f} (>= 4), "
                  f"{summary['enriched_minima']} enriched minima (>= 1), "
                  f"alternation {summary['alternation_contrast']:+.3f} (> 0), "
                  f"control CSVs {'present' if control_ok else 'missing'}")


def test_10_formula_suite_reference_values():
    t0 = time.monotonic()

    def theta_mp(B):
        B = mp.mpf(B)
        return 1 / (4 * B ** 2) + 1 / (24 * B ** 4) + 1 / (60 * B ** 6)

    def amplitude_mp(n, d, B):  # unit prefactor A = 1
        return (mp.mpf(n) ** mp.mpf("1.25") * mp.e ** (-n * theta_mp(B))
                / mp.sqrt(mp.binomial(n, d)))

    def sigma_omega_mp(om):
        return mp.sqrt(mp.pi / (4 * mp.log(om)))

    def mu_omega_mp(om):
        s = sigma_omega_mp(om)
        return 1 / s + 2 * s * (1 - mp.euler) / mp.pi

    om_ref = mp.pi ** 2 * 32  # M = 1024, gamma = 1.5, lam = 1
    om_unit = mp.e ** (mp.pi / 4)  # sigma_omega = 1 exactly
    cases = [
        ("theta(2)", theta(2.0), theta_mp(2)),
        ("amplitude_table(20, 2)[10]", amplitude_table(20, 2.0)[10],
         amplitude_mp(20, 10, 2)),
        ("sigma_omega", sigma_omega(float(om_ref)), sigma_omega_mp(om_ref)),
        ("sigma_omega unit", sigma_omega(float(om_unit)), mp.mpf(1)),
        ("mu_omega", mu_omega(float(om_ref)), mu_omega_mp(om_ref)),
        ("mu_omega unit", mu_omega(float(om_unit)), mu_omega_mp(om_unit)),
        ("omega_predicted",
         omega_predicted(PBLMConfig(M=1024, gamma=1.5, lam=1.0)), om_ref),
        ("grover_time(10, 4)", grover_time(10, 4, 1.0), mp.pi * mp.mpf(4) / 5),
        ("grover_time(4, 1)", grover_time(4, 1, 1.0), mp.pi / 2),
        ("pdf_w(e)", pdf_w(math.e), 1 / (mp.e ** 2 * mp.sqrt(mp.pi))),
    ]
    worst_name, worst = "", 0.0
    for name, got, want in cases:
        rel = float(abs(mp.mpf(got) - want) / abs(want))
        if rel > worst:
            worst_name, worst = name, rel
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    assert _check("10 closed-form reference suite", ok,
                  f"{len(cases)} values, worst rel err {worst:.2e} "
                  f"({worst_name}, <= 1e-6), {elapsed:.2f} s (< 1 s)")
