"""Command-line front end: experiment orchestration and file emission.

Every subcommand writes its outputs plus a manifest.json into the run
directory (--out-dir, else $PT_LAB_OUT, else ./pt_lab_out). Exit codes:
0 success, 1 runtime failure, 2 usage or input-format error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

# One OpenBLAS thread per CLI process unless the user sets the variable.
# The CLI's work is many small products and eigh calls (M <= 1024). On a
# 2-vCPU machine a second thread took 55-70% more CPU time on the spin-glass
# pipeline, impurity-band and ensemble benchmark workloads and saved at most
# 8% of their wall time; it also sums in another order, so artifact bytes
# depended on the core count. Large states do gain (n=20 FWHT about 20 ->
# 13 ms); an explicit OPENBLAS_NUM_THREADS selects that. This must run
# before the process first imports numpy, which is why ``pt_lab`` imports
# its submodules lazily.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .bits import check_bitstring, hamming_array
from .downfold import TunnelingParams, build_downfolded
from .grover import GroverSetup, error_time_report, reduced_transfer
from .instances import (
    ImpurityBandInstance,
    all_classical_energies,
    gen_impurity_band,
    gen_spin_glass,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    spectrum_summary,
)
from .io_utils import (
    RunManifest,
    resolve_out_dir,
    save_downfolded,
    write_csv,
    write_json,
)
from .optimize import (
    alternation_contrast,
    enrichment_ratio,
    enumerate_local_minima,
    local_minima,
    median_hamming,
    pair_hamming_histogram,
    pt_energy_window,
    steepest_descent,
)
from .pblm import (
    PBLMConfig,
    fit_stable_quantiles,
    gamma_samples,
    participation_ratios,
    predicted_gamma_law,
    sample_pblm,
    site_self_energies,
)
from .statevector import (
    EvolutionConfig,
    StateVector,
    evolve_trotter,
    run_pt_protocol,
)


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _load_checked(path, load=load_instance):
    try:
        return load(path)
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except FileNotFoundError as e:
        raise UsageError(str(e)) from e
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from e


class UsageError(Exception):
    """Bad input that should exit with code 2."""


def _flag(name):
    return f"--{name.replace('_', '-')}"


def _given(args, *names):
    """The flags among names that the run sets: an absent one records None
    (False for a switch), so a given 0 still counts. A name the subcommand
    lacks (evolve has no ladder flags) counts as absent."""
    return [_flag(k) for k in names
            if args.get(k) is not None and args.get(k) is not False]


def _count_arg(args, name):
    value = args[name]
    if value < 1:
        raise UsageError(f"{_flag(name)} must be >= 1, got {value}")
    return value


def _override_b_perp(inst, b_perp):
    if b_perp is None:
        return inst
    if not isinstance(inst, ImpurityBandInstance):
        raise UsageError("--b-perp override applies to impurity-band instances")
    try:
        return replace(inst, B_perp=b_perp)
    except ValueError as e:
        raise UsageError(f"--b-perp: {e}") from e


def _choose_start(inst, z0_arg):
    """'auto' picks the lowest-energy marked state (impurity band) or the
    second-lowest local minimum (glass), a low but non-global start; ties
    in energy go to the lower label."""
    if z0_arg != "auto":
        try:
            return check_bitstring(int(z0_arg, 0), inst.n)
        except ValueError as e:
            raise UsageError(f"--z0: {e}") from e
    if isinstance(inst, ImpurityBandInstance):
        return inst.marked[int(np.argmin(inst.eps))]
    labels, energies = local_minima(inst)
    order = np.lexsort((labels, energies))
    return int(labels[order[min(1, len(order) - 1)]])


def _evolution_config(args) -> EvolutionConfig:
    """EvolutionConfig from the evolution flags; a flag left None keeps the
    field's default. A flag that the run would ignore is a usage error."""
    if _given(args, "steps"):
        if not _given(args, "time"):
            raise UsageError("--steps needs --time; a ladder run steps at --dt")
        if _given(args, "dt"):
            raise UsageError("--steps and --dt exclude each other")
    ladder = _given(args, "start_time", "saturation_rtol", "max_doublings")
    if ladder and _given(args, "time"):
        raise UsageError(f"{ladder[0]} sets the doubling ladder, which --time "
                         "replaces")
    settings = {"total_time": args["time"], "trotter_steps": args["steps"],
                "dt": args["dt"], "start_time": args.get("start_time"),
                "saturation_rtol": args.get("saturation_rtol"),
                "max_doublings": args.get("max_doublings")}
    try:
        return EvolutionConfig(**{k: v for k, v in settings.items() if v is not None})
    except ValueError as e:
        raise UsageError(str(e)) from e


def _print_rung(total_time, weight, change):
    """Ladder progress, one stderr line per rung; never part of an artifact."""
    rel = "" if change is None else f", relative change {change:.3g}"
    print(f"rung: total time {total_time:.6g}, transferred weight {weight:.6g}"
          f"{rel}", file=sys.stderr)


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return ""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else x


# ---------------------------------------------------------------------------
# subcommand handlers (args is the parsed-namespace dict minus globals)


def _cmd_gen_instance(args, out_dir, manifest):
    band = args["kind"] == "impurity-band"
    if band and _given(args, "dimer_count"):
        raise UsageError("--dimer-count applies to spin-glass instances")
    if band and args["m"] is None:
        raise UsageError("gen-instance --kind impurity-band requires --m")
    if not band and _given(args, "m"):
        raise UsageError("--m applies to impurity-band instances")
    try:
        if band:
            inst = gen_impurity_band(args["n"], args["m"], args["w"],
                                     eps_law=args["eps_law"], seed=args["seed"],
                                     B_perp=args["b_perp"])
        else:
            inst = gen_spin_glass(args["n"], dimer_count=args["dimer_count"],
                                  seed=args["seed"], driver_scale=args["driver_scale"])
    except ValueError as e:
        raise UsageError(str(e)) from e
    doc = instance_to_dict(inst)
    path = out_dir / args["out"]
    write_json(path, doc, manifest)
    print(f"wrote {path}")


def _cmd_spectrum(args, out_dir, manifest):
    inst = _load_checked(args["instance"])
    summary = spectrum_summary(inst, bins=_count_arg(args, "bins"))
    rows = [(repr(float(lo)), repr(float(hi)), int(c))
            for lo, hi, c in zip(summary.bin_edges[:-1], summary.bin_edges[1:],
                                 summary.counts)]
    write_csv(out_dir / "spectrum.csv",
              ["bin_lo_energy", "bin_hi_energy", "count_states"], rows, manifest)
    write_json(out_dir / "spectrum.json",
               {"e_min": summary.e_min, "e_max": summary.e_max,
                "mean": summary.mean, "std": summary.std}, manifest)


def _top_k_rows(inst, z0, probs, k):
    """The k most probable states, by decreasing probability and then by
    label. Only the states at or above the k-th largest probability are
    sorted."""
    E = all_classical_energies(inst)
    k = min(k, len(probs))
    kth = np.partition(probs, len(probs) - k)[len(probs) - k]
    cand = np.flatnonzero(probs >= kth)
    order = cand[np.lexsort((cand, -probs[cand]))][:k]
    return [(int(z), repr(float(probs[z])), repr(float(E[z])), int(d))
            for z, d in zip(order, hamming_array(order, z0))]


def _cmd_evolve(args, out_dir, manifest):
    inst = _override_b_perp(_load_checked(args["instance"]), args["b_perp"])
    z0 = _choose_start(inst, args["z0"])
    if args["time"] is None:
        raise UsageError("evolve requires --time")
    config = _evolution_config(args)
    top_k = _count_arg(args, "top_k")
    state = evolve_trotter(StateVector.basis_state(inst.n, z0), inst, config)
    probs = state.probabilities()
    write_csv(out_dir / "evolve_state.csv",
              ["z", "probability", "classical_energy", "hamming_from_z0"],
              _top_k_rows(inst, z0, probs, top_k), manifest)
    write_json(out_dir / "evolve.json",
               {"z0": z0, "time": args["time"], "steps": config.resolve_steps(args["time"]),
                "norm": float(np.sqrt(probs.sum())), "survival": float(probs[z0])},
               manifest)


def _emit_pt_result(inst, result, out_dir, manifest, top_k, prefix="pt"):
    write_csv(out_dir / f"{prefix}_output.csv",
              ["z", "probability", "classical_energy", "hamming_from_z0"],
              _top_k_rows(inst, result.z0, result.probabilities, top_k), manifest)
    write_csv(out_dir / f"{prefix}_survival.csv", ["time", "survival_probability"],
              [(repr(float(t)), repr(float(s)))
               for t, s in zip(result.times, result.survival)], manifest)
    write_csv(out_dir / f"{prefix}_energy_hist.csv",
              ["bin_lo_energy", "bin_hi_energy", "probability"],
              [(repr(float(lo)), repr(float(hi)), repr(float(w)))
               for lo, hi, w in zip(result.energy_edges[:-1],
                                    result.energy_edges[1:], result.energy_hist)],
              manifest)
    write_csv(out_dir / f"{prefix}_hamming_hist.csv",
              ["hamming_distance", "probability"],
              [(d, repr(float(w))) for d, w in enumerate(result.hamming_hist)],
              manifest)


def _cmd_pt_run(args, out_dir, manifest):
    inst = _override_b_perp(_load_checked(args["instance"]), args["b_perp"])
    z0 = _choose_start(inst, args["z0"])
    config = _evolution_config(args)
    top_k = _count_arg(args, "top_k")
    result = run_pt_protocol(inst, z0, config, on_rung=_print_rung)
    _emit_pt_result(inst, result, out_dir, manifest, top_k)
    write_json(out_dir / "pt_result.json",
               {"z0": result.z0, "total_time": result.total_time,
                "saturated": result.saturated,
                "transferred_weight": result.transferred_weight,
                "ladder_times": result.ladder_times,
                "ladder_weights": result.ladder_weights}, manifest)
    return result


def _cmd_downfold(args, out_dir, manifest):
    inst = _load_checked(args["instance"])
    if not isinstance(inst, ImpurityBandInstance):
        raise UsageError("downfold needs an impurity-band instance")
    try:
        params = TunnelingParams(
            n=inst.n, B_perp=inst.B_perp, phase_mode=args["phase_mode"],
            calibration_A=args["calibration_a"])
    except ValueError as e:
        raise UsageError(str(e)) from e
    mat = build_downfolded(inst, params, seed=args["seed"])
    save_downfolded(mat, out_dir / "downfolded", manifest)
    write_json(out_dir / "downfold_report.json",
               {"M": mat.M, "n": mat.n, "B_perp": mat.B_perp, "W": mat.W,
                "V_typ": mat.V_typ, "shift": mat.shift,
                "phase_mode": params.phase_mode}, manifest)


def _one_pblm_realization(config, seed, eta, fit_gammas):
    mat = sample_pblm(config, seed=seed)
    sigma = site_self_energies(mat, eta)
    omegas = participation_ratios(mat)
    gammas = gamma_samples(mat) if fit_gammas else None
    return seed, sigma, omegas, gammas


def _pblm_config(args) -> PBLMConfig:
    try:
        return PBLMConfig(M=args["m"], gamma=args["gamma"], lam=args["lam"],
                          V_typ_unit=args["v_typ"])
    except ValueError as e:
        raise UsageError(str(e)) from e


def _cmd_pblm_ensemble(args, out_dir, manifest):
    config = _pblm_config(args)
    R = _count_arg(args, "realizations")
    eta = args["eta"]
    if eta is not None and not eta > 0:
        raise UsageError(f"--eta must be positive, got {eta}")
    fit_gammas = args["fit_gammas"]
    seeds = [args["seed"] + r for r in range(R)]
    manifest.seeds.extend(seeds)
    results = [_one_pblm_realization(config, s, eta, fit_gammas) for s in seeds]

    site_rows, omega_rows = [], []
    pooled_sigma2 = []
    pooled_gamma = []
    censored = 0
    for seed, sigma, omegas, gammas in results:
        for j in range(config.M):
            g = gammas[j] if gammas is not None else None
            site_rows.append((seed, j, _fmt(sigma.real[j]), _fmt(sigma.imag[j]),
                              _fmt(g)))
            if gammas is not None and not np.isfinite(gammas[j]):
                censored += 1
        omega_rows.extend((seed, b, _fmt(om)) for b, om in enumerate(omegas))
        pooled_sigma2.append(sigma.imag)
        if gammas is not None:
            pooled_gamma.append(gammas[np.isfinite(gammas)])
    write_csv(out_dir / "pblm_sites.csv",
              ["realization_seed", "site", "sigma_prime_energy",
               "sigma_doubleprime_energy", "gamma_rate"], site_rows, manifest)
    write_csv(out_dir / "pblm_states.csv",
              ["realization_seed", "state", "participation_ratio"],
              omega_rows, manifest)

    sigma2 = np.concatenate(pooled_sigma2)
    positive = sigma2[sigma2 > 0]
    fit = fit_stable_quantiles(positive)
    pred = predicted_gamma_law(config)
    report = {
        "config": {"M": config.M, "gamma": config.gamma, "lam": config.lam,
                   "V_typ": config.V_typ_unit, "W": config.W},
        "realizations": R,
        "predicted": {"sigma_typ": pred.sigma_typ, "scale": pred.scale,
                      "sigma_star": pred.sigma_star, "omega": pred.omega,
                      "gamma_typ": pred.gamma_typ},
        "fitted_sigma2": {"shift": fit.shift, "scale": fit.C},
        "median_participation_ratio": float(np.median(np.concatenate(
            [om for _, _, om, _ in results]))),
        "median_sigma2": float(np.median(sigma2)),
    }
    if pooled_gamma:
        pooled = np.concatenate(pooled_gamma)
        gfit = fit_stable_quantiles(pooled / 2.0)
        report["fitted_gamma_half"] = {"shift": gfit.shift, "scale": gfit.C}
        report["censored_fraction"] = censored / (R * config.M)
    write_json(out_dir / "pblm_fit.json", report, manifest)


def _simulated_peak(setup, scan_points=4001):
    """Repeated-trial transfer time from exact reduced dynamics, scanned
    over one period 2 pi / eps0 of the driver error (error_time_report has
    checked eps0 > 0)."""
    times = np.linspace(0.0, 2.0 * math.pi / setup.eps0, scan_points)
    pop = reduced_transfer(setup, times)
    k = int(np.argmax(pop))
    return float(times[k]), float(pop[k])


def _cmd_grover_sweep(args, out_dir, manifest):
    n, M, W = args["n"], args["m"], args["w"]
    if not (math.isfinite(W) and W > 0):
        raise UsageError(f"--w must be finite and > 0, got {W}")
    try:
        eps = np.random.default_rng(args["seed"]).uniform(-W / 2.0, W / 2.0, size=M)
        setups = [GroverSetup(n=n, eps=eps, eps0=eps0) for eps0 in args["eps0"]]
        reports = [error_time_report(setup) for setup in setups]
    except ValueError as e:
        raise UsageError(str(e)) from e
    rows = []
    for setup, rep in zip(setups, reports):
        t_peak, p_peak = _simulated_peak(setup)
        t_sim = t_peak / p_peak if p_peak > 0 else math.inf
        rows.append((n, M, repr(float(W)), repr(float(setup.eps0)),
                     repr(rep.t_pt), repr(t_sim), repr(rep.t_grover),
                     repr(rep.p0), repr(rep.t0)))
    write_csv(out_dir / "grover_sweep.csv",
              ["n", "M", "W_energy", "eps0_energy", "t_pt_predicted",
               "t_pt_simulated", "t_grover", "p0_peak", "t0_peak"],
              rows, manifest)


def _cmd_sd(args, out_dir, manifest):
    inst = _load_checked(args["instance"])
    z0 = _choose_start(inst, args["z0"])
    rec = steepest_descent(inst, z0)
    write_json(out_dir / "sd.json",
               {"z_start": z0, "z_min": rec.z, "energy": rec.energy,
                "steps": rec.steps, "ties": rec.ties}, manifest)
    print(f"start {z0} -> minimum {rec.z} energy {rec.energy:.6f} "
          f"steps {rec.steps}{' (ties)' if rec.ties else ''}")


def _bitstring(z, n):
    return format(z, f"0{n}b")


def _cmd_minima(args, out_dir, manifest):
    inst = _load_checked(args["instance"])
    records = sorted(enumerate_local_minima(inst), key=lambda r: (r.energy, r.z))
    write_csv(out_dir / "minima.csv",
              ["z", "bitstring", "energy", "basin_probability_uniform"],
              [(r.z, _bitstring(r.z, inst.n), repr(r.energy),
                repr(r.basin_probability)) for r in records], manifest)
    print(f"{len(records)} local minima; "
          f"global minimum energy {records[0].energy:.6f}")


def _cmd_pipeline(args, out_dir, manifest):
    inst = _override_b_perp(_load_checked(args["instance"]), args["b_perp"])
    z0 = _choose_start(inst, args["z0"])
    config = _evolution_config(args)
    top_k = _count_arg(args, "top_k")
    result = run_pt_protocol(inst, z0, config, on_rung=_print_rung)
    _emit_pt_result(inst, result, out_dir, manifest, top_k)

    E = all_classical_energies(inst)
    N = 1 << inst.n
    probs = result.probabilities
    edges = result.energy_edges

    # panel 1: normalized energy weights of DOS, SD, PT, SD-PT
    lab, en, ratio, m_pt, m_u = enrichment_ratio(inst, probs)
    dos_w, _ = np.histogram(E, bins=edges)
    sd_w, _ = np.histogram(en, bins=edges, weights=m_u)
    sdpt_w, _ = np.histogram(en, bins=edges, weights=m_pt)
    write_csv(out_dir / "fig_energy_panels.csv",
              ["bin_lo_energy", "bin_hi_energy", "dos_weight", "sd_weight",
               "pt_weight", "sd_pt_weight"],
              [(repr(float(lo)), repr(float(hi)), repr(float(a)), repr(float(b)),
                repr(float(c)), repr(float(d)))
               for lo, hi, a, b, c, d in zip(edges[:-1], edges[1:], dos_w / N,
                                             sd_w, result.energy_hist, sdpt_w)],
              manifest)

    # 1-sigma window around the weighted mean output energy
    lo_e, hi_e = pt_energy_window(probs, E)
    window = (E >= lo_e) & (E <= hi_e)
    sel = np.nonzero(window)[0]
    d_sel = hamming_array(sel, z0)
    pt_win = np.bincount(d_sel, weights=probs[sel], minlength=inst.n + 1)
    uni_win = np.bincount(d_sel, minlength=inst.n + 1).astype(float)
    uni_win /= max(uni_win.sum(), 1.0)
    pt_full = result.hamming_hist
    write_csv(out_dir / "fig_hamming_from_start.csv",
              ["hamming_distance", "pt_window_weight", "uniform_window_weight",
               "pt_full_weight"],
              [(d, repr(float(a)), repr(float(b)), repr(float(c)))
               for d, (a, b, c) in enumerate(zip(pt_win, uni_win, pt_full))],
              manifest)

    # pairwise Hamming structure inside the window
    pair_hist = pair_hamming_histogram(sel, probs[sel], inst.n)
    write_csv(out_dir / "fig_pair_hamming.csv",
              ["hamming_distance", "joint_probability_weight"],
              [(d, repr(float(w))) for d, w in enumerate(pair_hist)], manifest)

    # enrichment of every local minimum
    write_csv(out_dir / "fig_enrichment.csv",
              ["z", "bitstring", "energy", "basin_mass_uniform",
               "basin_mass_pt", "enrichment_ratio"],
              [(int(z), _bitstring(int(z), inst.n), repr(float(e)),
                repr(float(mu)), repr(float(mp)), _fmt(float(r)))
               for z, e, mu, mp, r in zip(lab, en, m_u, m_pt, ratio)], manifest)

    window_weight = float(probs[window].sum())
    dos_fraction = float(window.sum()) / N
    finite = np.isfinite(ratio)
    summary = {
        "z0": z0, "z0_energy": float(E[z0]),
        "total_time": result.total_time, "saturated": result.saturated,
        "transferred_weight": result.transferred_weight,
        "window": [lo_e, hi_e],
        "window_weight_pt": window_weight,
        "window_dos_fraction": dos_fraction,
        "window_ratio": window_weight / dos_fraction if dos_fraction else math.inf,
        "median_hamming_pt": median_hamming(pt_full),
        "alternation_contrast": alternation_contrast(pair_hist),
        "minima_count": int(len(lab)),
        "enriched_minima": int(np.sum(ratio[finite] > 1.0)),
        "global_min_ratio": _fmt(float(ratio[int(np.argmin(en))])),
    }
    write_json(out_dir / "pipeline_summary.json", summary, manifest)
    print(f"pipeline: window ratio {summary['window_ratio']:.2f}, "
          f"median Hamming {summary['median_hamming_pt']:.0f}, "
          f"alternation {summary['alternation_contrast']:+.4f}, "
          f"{summary['enriched_minima']} enriched minima")


def _cmd_stats_fit(args, out_dir, manifest):
    from .io_utils import read_csv_columns

    beta = args["beta"]
    if not -1.0 <= beta <= 1.0:
        raise UsageError(f"--beta must lie in [-1, 1], got {beta}")
    missing = [_flag(k) for k in ("m", "gamma") if args[k] is None]
    if len(missing) == 1:
        raise UsageError(f"stats-fit: {missing[0]} is missing; --m and "
                         "--gamma together select the predicted law")
    config = None if missing else _pblm_config(args)
    cols = read_csv_columns(args["input"])
    name = args["column"]
    if name not in cols:
        raise UsageError(f"column {name!r} not in {args['input']}")
    col = cols[name]
    if col.dtype.kind == "U":  # blank cells, such as censored decay rates
        col = np.where(col == "", "nan", col)
    try:
        samples = col.astype(float)
    except ValueError:
        raise UsageError(f"column {name!r} holds non-numeric cells") from None
    samples = samples[np.isfinite(samples)]
    if args["positive_only"]:
        samples = samples[samples > 0]
    fit = fit_stable_quantiles(samples, beta=beta)
    doc = {"input": str(args["input"]), "column": name,
           "count": int(len(samples)),
           "fit": {"alpha": fit.alpha, "beta": fit.beta, "C": fit.C,
                   "shift": fit.shift}}
    if config is not None:
        pred = predicted_gamma_law(config)
        doc["predicted"] = {"sigma_typ": pred.sigma_typ, "scale": pred.scale,
                            "sigma_star": pred.sigma_star, "omega": pred.omega}
        doc["ratios"] = {"shift_over_predicted": fit.shift / pred.sigma_typ,
                         "scale_over_predicted": fit.C / pred.scale}
    write_json(out_dir / "stats_fit.json", doc, manifest)
    print(f"fit: shift {fit.shift:.6g}, scale {fit.C:.6g} ({len(samples)} samples)")


_HANDLERS = {
    "gen-instance": _cmd_gen_instance,
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "pt-run": _cmd_pt_run,
    "downfold": _cmd_downfold,
    "pblm-ensemble": _cmd_pblm_ensemble,
    "grover-sweep": _cmd_grover_sweep,
    "sd": _cmd_sd,
    "minima": _cmd_minima,
    "pipeline": _cmd_pipeline,
    "stats-fit": _cmd_stats_fit,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pt-lab",
        description="Population-transfer protocol simulator and statistics toolkit")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--out-dir", help="run directory (default $PT_LAB_OUT or ./pt_lab_out)")
    p.add_argument("--replay", metavar="MANIFEST",
                   help="re-run a recorded manifest and verify output hashes")
    sub = p.add_subparsers(dest="subcommand")

    g = sub.add_parser("gen-instance", help="generate and save a problem instance")
    g.add_argument("--kind", choices=["impurity-band", "spin-glass"], required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, help="number of marked states (impurity band)")
    g.add_argument("--w", type=float, default=0.5, help="energy strip width")
    g.add_argument("--b-perp", type=float, default=2.0)
    g.add_argument("--eps-law", choices=["uniform", "gauss"], default="uniform")
    g.add_argument("--dimer-count", type=int, default=None)
    g.add_argument("--driver-scale", type=float, default=0.2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="instance.json")

    s = sub.add_parser("spectrum", help="classical density of states")
    s.add_argument("--instance", required=True)
    s.add_argument("--bins", type=int, default=64)

    for name, hlp in [("evolve", "fixed-time Trotter evolution"),
                      ("pt-run", "full transfer protocol run"),
                      ("pipeline", "transfer + descent enrichment analysis")]:
        e = sub.add_parser(name, help=hlp)
        e.add_argument("--instance", required=True)
        e.add_argument("--z0", default="auto")
        e.add_argument("--time", type=float, default=None)
        e.add_argument("--steps", type=int, default=None)
        e.add_argument("--dt", type=float, default=None)
        if name != "evolve":  # the doubling ladder, which --time replaces
            e.add_argument("--start-time", type=float, default=None)
            e.add_argument("--saturation-rtol", type=float, default=None)
            e.add_argument("--max-doublings", type=int, default=None)
        e.add_argument("--top-k", type=int, default=1024)
        e.add_argument("--b-perp", type=float, default=None,
                       help="override the stored transverse field")

    d = sub.add_parser("downfold", help="build the effective marked-state matrix")
    d.add_argument("--instance", required=True)
    d.add_argument("--phase-mode", choices=["random_sign", "random_phase",
                                            "numeric_extraction"],
                   default="random_sign")
    d.add_argument("--calibration-a", type=float, default=1.0)
    d.add_argument("--seed", type=int, default=0)

    pe = sub.add_parser("pblm-ensemble", help="heavy-tailed matrix ensemble statistics")
    pe.add_argument("--m", type=int, required=True)
    pe.add_argument("--gamma", type=float, required=True)
    pe.add_argument("--lam", type=float, default=1.0)
    pe.add_argument("--v-typ", type=float, default=1.0)
    pe.add_argument("--realizations", type=int, default=20)
    pe.add_argument("--eta", type=float, default=None)
    pe.add_argument("--fit-gammas", action="store_true",
                    help="also fit per-site survival decay rates")
    pe.add_argument("--seed", type=int, default=0)

    gs = sub.add_parser("grover-sweep", help="driver-error sweep of the reduced model")
    gs.add_argument("--n", type=int, required=True)
    gs.add_argument("--m", type=int, required=True)
    gs.add_argument("--w", type=float, required=True)
    gs.add_argument("--eps0", type=float, nargs="+", required=True)
    gs.add_argument("--seed", type=int, default=0)

    sd = sub.add_parser("sd", help="single steepest-descent trajectory")
    sd.add_argument("--instance", required=True)
    sd.add_argument("--z0", default="auto")

    mi = sub.add_parser("minima", help="enumerate all single-flip local minima")
    mi.add_argument("--instance", required=True)

    sf = sub.add_parser("stats-fit", help="index-1 stable fit of a sample column")
    sf.add_argument("--input", required=True)
    sf.add_argument("--column", default="sigma_doubleprime_energy")
    sf.add_argument("--beta", type=float, default=1.0)
    sf.add_argument("--positive-only", action="store_true")
    sf.add_argument("--m", type=int, default=None,
                    help="with --gamma, compare the fit with the predicted law")
    sf.add_argument("--gamma", type=float, default=None,
                    help="with --m, compare the fit with the predicted law")
    sf.add_argument("--lam", type=float, default=1.0)
    sf.add_argument("--v-typ", type=float, default=1.0)
    return p


def _run(subcommand: str, args: dict, out_dir: Path,
         defaults: dict | None = None) -> RunManifest:
    """Run subcommand on args, read over defaults; the manifest records
    args alone."""
    manifest = RunManifest(subcommand=subcommand, args=args)
    if args.get("seed") is not None:
        manifest.seeds.append(args["seed"])
    _HANDLERS[subcommand]({**(defaults or {}), **args}, out_dir, manifest)
    manifest.write(out_dir)
    return manifest


def _replay(manifest_path: str, out_dir_flag: str | None) -> int:
    doc = _load_checked(manifest_path, _read_json)
    if (not isinstance(doc, dict) or doc.get("subcommand") not in _HANDLERS
            or not isinstance(doc.get("args"), dict)):
        raise UsageError(f"{manifest_path}: not a run manifest")
    # a manifest can predate a flag; the run takes that flag's default, and
    # the manifest hash still covers the args as recorded
    sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
    flags = [a for a in sub.choices[doc["subcommand"]]._actions
             if a.dest != "help"]
    lacking = [a.option_strings[0] for a in flags
               if a.required and a.dest not in doc["args"]]
    if lacking:
        raise UsageError(f"{manifest_path}: args lack {', '.join(lacking)}")
    manifest = _run(doc["subcommand"], doc["args"], resolve_out_dir(out_dir_flag),
                    {a.dest: a.default for a in flags})
    # the BLAS thread count can move the outputs' last bits (README), so a
    # reader of the verdicts below needs the setting the run used
    print("replay: OPENBLAS_NUM_THREADS="
          + os.environ.get("OPENBLAS_NUM_THREADS", "unset"), file=sys.stderr)
    old = {Path(o["path"]).name: o["sha256"] for o in doc.get("outputs", [])}
    ok = True
    for entry in manifest.outputs:
        name = Path(entry["path"]).name
        if name in old:
            match = old[name] == entry["sha256"]
            ok = ok and match
            print(f"{'match' if match else 'MISMATCH'}: {name}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if not (ns.replay or ns.subcommand):
        parser.print_usage(sys.stderr)
        return 2
    try:
        if ns.replay:
            return _replay(ns.replay, ns.out_dir)
        args = {k: v for k, v in vars(ns).items()
                if k not in ("subcommand", "out_dir", "replay")}
        _run(ns.subcommand, args, resolve_out_dir(ns.out_dir))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: line {e.lineno} column {e.colno}: {e.msg}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
