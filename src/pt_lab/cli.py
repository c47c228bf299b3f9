"""Command-line front end: experiment orchestration and file emission.

Each subcommand's handler computes and returns its outputs; _run alone
writes them and a manifest.json into the run directory (--out-dir, else
$PT_LAB_OUT, else ./pt_lab_out). main alone maps an exception to an exit
code: 0 success; 2 for a ValueError, any invalid or out-of-range input,
which any layer may raise and which leaves nothing on disk; 1 for an
OSError or TypeError, outputs not written or an internal error.

The package modules are lazy handles, each run on its first attribute
access, so a process runs only the modules its subcommand reaches and its
start-up pays for no other; a new import goes in the module that needs it.
numpy, which every subcommand uses, is imported eagerly.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

# One OpenBLAS thread per CLI process unless the user sets the variable.
# The CLI's work is many small products and eigh calls (M <= 1024). On a
# 2-vCPU machine a second thread took 55-70% more CPU time on the spin-glass
# pipeline, impurity-band and ensemble benchmark workloads and saved at most
# 8% of their wall time; it also sums in another order, so artifact bytes
# depended on the core count. Large states do gain (n=20 FWHT about 20 ->
# 13 ms); an explicit OPENBLAS_NUM_THREADS selects that. This must run
# before the process first imports numpy, which is why ``pt_lab`` imports
# no submodule.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__


def _lazy(name):
    """Module name, registered and bound on its package as by an import but
    run on its first attribute access; an imported module is returned as is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, short = name.rpartition(".")
    setattr(sys.modules[package], short, module)
    return module


bits = _lazy("pt_lab.bits")
downfold = _lazy("pt_lab.downfold")
grover = _lazy("pt_lab.grover")
instances = _lazy("pt_lab.instances")
io_utils = _lazy("pt_lab.io_utils")
optimize = _lazy("pt_lab.optimize")
pblm = _lazy("pt_lab.pblm")
statevector = _lazy("pt_lab.statevector")


def _load_checked(path, load=None):
    """load(path), every failure to read it turned into bad input (ValueError)
    that names the path: the loaders raise TypeError where a document holds
    a value of the wrong shape, such as a number where a list belongs."""
    try:
        return (load or instances.load_instance)(path)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except OSError as e:  # a missing file, a directory, no read permission
        raise ValueError(str(e)) from e
    except (ValueError, TypeError) as e:
        raise ValueError(f"{path}: {e}") from e


def _flag(name):
    return f"--{name.replace('_', '-')}"


def _given(args, *names, **defaults):
    """The flags among names (default None, so a given 0 still counts) and
    defaults (name=default) that the run sets away from their default. A
    name the subcommand lacks (evolve has no ladder flags) counts as unset."""
    defaults = {**dict.fromkeys(names), **defaults}
    return [_flag(k) for k, d in defaults.items() if args.get(k, d) != d]


def _count_arg(args, name):
    value = args[name]
    if value < 1:
        raise ValueError(f"{_flag(name)} must be >= 1, got {value}")
    return value


def _override_b_perp(inst, b_perp):
    if b_perp is None:
        return inst
    if not isinstance(inst, instances.ImpurityBandInstance):
        raise ValueError("--b-perp override applies to impurity-band instances")
    try:
        return replace(inst, B_perp=b_perp)
    except ValueError as e:
        raise ValueError(f"--b-perp: {e}") from e


def _choose_start(inst, z0_arg):
    """'auto' picks the lowest-energy marked state (impurity band) or the
    second-lowest local minimum (glass), a low but non-global start; ties
    in energy go to the lower label. On a glass 'auto' builds the basin map,
    so callers check their flags first."""
    if z0_arg != "auto":
        try:
            return bits.check_bitstring(int(z0_arg, 0), inst.n)
        except ValueError as e:
            raise ValueError(f"--z0: {e}") from e
    if isinstance(inst, instances.ImpurityBandInstance):
        labels, energies, rank = np.array(inst.marked), inst.eps, 0
    else:
        (labels, energies), rank = optimize.local_minima(inst), 1
    if not len(labels):
        raise ValueError("--z0 auto needs a marked state; the band has none")
    order = np.lexsort((labels, energies))
    return int(labels[order[min(rank, len(order) - 1)]])


def _evolution_config(args) -> statevector.EvolutionConfig:
    """EvolutionConfig from the evolution flags; a flag left None keeps the
    field's default. A flag that the run would ignore is bad input."""
    if _given(args, "steps"):
        if not _given(args, "time"):
            raise ValueError("--steps needs --time; a ladder run steps at --dt")
        if _given(args, "dt"):
            raise ValueError("--steps and --dt exclude each other")
    ladder = _given(args, "start_time", "saturation_rtol", "max_doublings")
    if ladder and _given(args, "time"):
        raise ValueError(f"{ladder[0]} sets the doubling ladder, which --time "
                         "replaces")
    settings = {"total_time": args["time"], "trotter_steps": args["steps"],
                "dt": args["dt"], "start_time": args.get("start_time"),
                "saturation_rtol": args.get("saturation_rtol"),
                "max_doublings": args.get("max_doublings")}
    return statevector.EvolutionConfig(
        **{k: v for k, v in settings.items() if v is not None})


def _print_rung(total_time, weight, change):
    """Ladder progress, one stderr line per rung; never part of an artifact."""
    rel = "" if change is None else f", relative change {change:.3g}"
    print(f"rung: total time {total_time:.6g}, transferred weight {weight:.6g}"
          f"{rel}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed-namespace dict minus globals and
# the run directory, which only names paths in a stdout line, and writes nothing


class _Columns(dict):
    """A CSV table, named columns of equal length (io_utils.write_csv)."""


class _Outputs(NamedTuple):
    files: dict  # name -> _Columns, a JSON document or a DownfoldedMatrix
    line: str | None = None  # stdout summary, printed once the files exist
    seeds: tuple = ()  # seeds drawn besides --seed; the manifest hash covers them


# flags that some runs ignore, with the defaults that the parser gives them:
# gen-instance's of each instance kind, and the predicted law's besides --m
# and --gamma. A run that would ignore one refuses it away from its default
_KIND_DEFAULTS = {
    "impurity-band": {"m": None, "w": 0.5, "b_perp": 2.0, "eps_law": "uniform"},
    "spin-glass": {"dimer_count": None, "driver_scale": 0.2}}
_LAW_DEFAULTS = {"lam": 1.0, "v_typ": 1.0}


def _cmd_gen_instance(args, out_dir):
    for kind, defaults in _KIND_DEFAULTS.items():
        ignored = _given(args, **defaults)
        if kind != args["kind"] and ignored:
            raise ValueError(f"{ignored[0]} applies to {kind} instances")
    if args["kind"] == "spin-glass":
        inst = instances.gen_spin_glass(
            args["n"], dimer_count=args["dimer_count"], seed=args["seed"],
            driver_scale=args["driver_scale"])
    elif args["m"] is None:
        raise ValueError("gen-instance --kind impurity-band requires --m")
    else:
        inst = instances.gen_impurity_band(
            args["n"], args["m"], args["w"], eps_law=args["eps_law"],
            seed=args["seed"], B_perp=args["b_perp"])
    return _Outputs({args["out"]: instances.instance_to_dict(inst)},
                    f"wrote {out_dir / args['out']}")


def _cmd_spectrum(args, out_dir):
    inst = _load_checked(args["instance"])
    summary = instances.spectrum_summary(inst, bins=_count_arg(args, "bins"))
    return _Outputs({
        "spectrum.csv": _Columns(bin_lo_energy=summary.bin_edges[:-1],
                                 bin_hi_energy=summary.bin_edges[1:],
                                 count_states=summary.counts),
        "spectrum.json": {"e_min": summary.e_min, "e_max": summary.e_max,
                          "mean": summary.mean, "std": summary.std}})


def _top_k_rows(inst, z0, probs, k):
    """The columns of the k most probable states, by decreasing probability
    and then by label. Probabilities are compared in float32, so states
    whose probabilities are equal in exact arithmetic, and differ only by
    rounding, keep label order; the probability column is the float64 value.
    Only the states at or above the k-th largest key are sorted."""
    key = probs.astype(np.float32)
    k = min(k, len(key))
    kth = np.partition(key, len(key) - k)[len(key) - k]
    cand = np.flatnonzero(key >= kth)
    z = cand[np.lexsort((cand, -key[cand]))][:k]
    return _Columns(z=z, probability=probs[z],
                    classical_energy=instances.label_energies(inst, z),
                    hamming_from_z0=bits.hamming_array(z, z0))


def _cmd_evolve(args, out_dir):
    if args["time"] is None:
        raise ValueError("evolve requires --time")
    config = _evolution_config(args)
    top_k = _count_arg(args, "top_k")
    inst = _override_b_perp(_load_checked(args["instance"]), args["b_perp"])
    z0 = _choose_start(inst, args["z0"])
    psi = statevector.evolve_trotter(inst, [1.0], [z0], config)
    probs = np.abs(psi) ** 2
    return _Outputs({
        "evolve_state.csv": _top_k_rows(inst, z0, probs, top_k),
        "evolve.json": {"z0": z0, "time": args["time"],
                        "steps": config.resolve_steps(args["time"]),
                        "norm": float(np.sqrt(probs.sum())),
                        "survival": float(probs[z0])}})


def _transfer(args):
    """pt-run's and pipeline's transfer run: (inst, result, its pt_* files)."""
    config = _evolution_config(args)
    top_k = _count_arg(args, "top_k")
    inst = _override_b_perp(_load_checked(args["instance"]), args["b_perp"])
    z0 = _choose_start(inst, args["z0"])
    result = statevector.run_pt_protocol(inst, z0, config, on_rung=_print_rung)
    files = {
        "pt_output.csv": _top_k_rows(inst, result.z0, result.probabilities, top_k),
        "pt_survival.csv": _Columns(time=result.times,
                                    survival_probability=result.survival),
        "pt_energy_hist.csv": _Columns(bin_lo_energy=result.energy_edges[:-1],
                                       bin_hi_energy=result.energy_edges[1:],
                                       probability=result.energy_hist),
        "pt_hamming_hist.csv": _Columns(
            hamming_distance=np.arange(len(result.hamming_hist)),
            probability=result.hamming_hist)}
    return inst, result, files


def _cmd_pt_run(args, out_dir):
    _, result, files = _transfer(args)
    files["pt_result.json"] = {
        "z0": result.z0, "total_time": result.total_time,
        "saturated": result.saturated,
        "transferred_weight": result.transferred_weight,
        "ladder_times": result.ladder_times,
        "ladder_weights": result.ladder_weights}
    return _Outputs(files)


def _cmd_downfold(args, out_dir):
    if args["phase_mode"] == "numeric_extraction" and _given(args, seed=0):
        raise ValueError("--seed draws the phases, which numeric_extraction does not")
    inst = _load_checked(args["instance"])
    if not isinstance(inst, instances.ImpurityBandInstance):
        raise ValueError("downfold needs an impurity-band instance")
    mat = downfold.build_downfolded(inst, args["phase_mode"], args["calibration_a"],
                                    seed=args["seed"])
    # downfolded.json's V_typ reads the theta series in every phase mode
    if inst.B_perp <= downfold.THETA_MIN_B_PERP:
        print(f"warning: B_perp = {inst.B_perp:g}: the theta series behind V(d) "
              f"and V_typ assumes B_perp > {downfold.THETA_MIN_B_PERP:g}",
              file=sys.stderr)
    return _Outputs({"downfolded": mat})


def _one_pblm_realization(config, seed, eta, fit_gammas):
    mat = pblm.sample_pblm(config, seed=seed)
    sigma = pblm.site_self_energies(mat, eta)
    omegas = pblm.participation_ratios(mat)
    gammas = pblm.gamma_samples(mat) if fit_gammas else None
    return sigma, omegas, gammas


def _pblm_config(args) -> pblm.PBLMConfig:
    return pblm.PBLMConfig(M=args["m"], gamma=args["gamma"], lam=args["lam"],
                           V_typ_unit=args["v_typ"])


def _cmd_pblm_ensemble(args, out_dir):
    config = _pblm_config(args)
    R = _count_arg(args, "realizations")
    eta = args["eta"]
    if eta is not None and not eta > 0:
        raise ValueError(f"--eta must be positive, got {eta}")
    fit_gammas = args["fit_gammas"]
    seeds = [args["seed"] + r for r in range(R)]
    sigma, omegas, gammas = zip(*(_one_pblm_realization(config, s, eta, fit_gammas)
                                  for s in seeds))
    sigma, omegas = np.concatenate(sigma), np.concatenate(omegas)
    gammas = np.concatenate(gammas) if fit_gammas else [None] * len(sigma)
    sigma2 = sigma.imag
    fit = pblm.fit_stable_quantiles(sigma2[sigma2 > 0])
    pred = pblm.predicted_gamma_law(config)
    report = {
        "config": {"M": config.M, "gamma": config.gamma, "lam": config.lam,
                   "V_typ": config.V_typ_unit, "W": config.W},
        "realizations": R,
        "predicted": {"sigma_typ": pred.sigma_typ, "scale": pred.scale,
                      "sigma_star": pred.sigma_star, "omega": pred.omega,
                      "gamma_typ": pred.gamma_typ},
        "fitted_sigma2": {"shift": fit.shift, "scale": fit.C},
        "median_participation_ratio": float(np.median(omegas)),
        "median_sigma2": float(np.median(sigma2)),
    }
    if fit_gammas:
        censored = np.isnan(gammas)
        gfit = pblm.fit_stable_quantiles(gammas[~censored] / 2.0)
        report["fitted_gamma_half"] = {"shift": gfit.shift, "scale": gfit.C}
        report["censored_fraction"] = censored.mean()
    seed_col = np.repeat(seeds, config.M)
    index_col = np.tile(np.arange(config.M), R)
    return _Outputs({
        "pblm_sites.csv": _Columns(realization_seed=seed_col, site=index_col,
                                   sigma_prime_energy=sigma.real,
                                   sigma_doubleprime_energy=sigma.imag,
                                   gamma_rate=gammas),
        "pblm_states.csv": _Columns(realization_seed=seed_col, state=index_col,
                                    participation_ratio=omegas),
        "pblm_fit.json": report}, seeds=seeds)


# times per driver-error period in _simulated_peak's scan
_PEAK_SCAN_POINTS = 4001


def _simulated_peak(setup):
    """Repeated-trial transfer time from exact reduced dynamics, scanned
    over one period 2 pi / eps0 of the driver error (error_time_report has
    checked eps0 > 0)."""
    times = np.linspace(0.0, 2.0 * math.pi / setup.eps0, _PEAK_SCAN_POINTS)
    pop = grover.reduced_transfer(setup, times)
    k = int(np.argmax(pop))
    return float(times[k]), float(pop[k])


def _cmd_grover_sweep(args, out_dir):
    n, M, W = args["n"], args["m"], args["w"]
    if not (math.isfinite(W) and W > 0):
        raise ValueError(f"--w must be finite and > 0, got {W}")
    eps = np.random.default_rng(args["seed"]).uniform(-W / 2.0, W / 2.0, size=M)
    setups = [grover.GroverSetup(n=n, eps=eps, eps0=eps0) for eps0 in args["eps0"]]
    reports = [grover.error_time_report(setup) for setup in setups]
    for setup, rep in zip(setups, reports):
        if not rep.in_regime:
            print(f"warning: eps0 = {setup.eps0:g}: perturbative treatment "
                  f"assumes eps0 >> W; eps0/W = {setup.eps0 / setup.W:.3g}",
                  file=sys.stderr)
    peaks = [_simulated_peak(setup) for setup in setups]
    return _Outputs({"grover_sweep.csv": _Columns(
        n=[n] * len(setups), M=[M] * len(setups), W_energy=[W] * len(setups),
        eps0_energy=[setup.eps0 for setup in setups],
        t_pt_predicted=[rep.t_pt for rep in reports],
        t_pt_simulated=[t / p if p > 0 else math.inf for t, p in peaks],
        t_grover=[rep.t_grover for rep in reports],
        p0_peak=[rep.p0 for rep in reports],
        t0_peak=[rep.t0 for rep in reports])})


def _cmd_sd(args, out_dir):
    inst = _load_checked(args["instance"])
    z0 = _choose_start(inst, args["z0"])
    rec = optimize.steepest_descent(inst, z0)
    return _Outputs(
        {"sd.json": {"z_start": z0, "z_min": rec.z, "energy": rec.energy,
                     "steps": rec.steps, "ties": rec.ties}},
        f"start {z0} -> minimum {rec.z} energy {rec.energy:.6f} "
        f"steps {rec.steps}{' (ties)' if rec.ties else ''}")


def _bitstring(z, n):
    return format(z, f"0{n}b")


def _cmd_minima(args, out_dir):
    inst = _load_checked(args["instance"])
    records = sorted(optimize.enumerate_local_minima(inst), key=lambda r: (r.energy, r.z))
    columns = _Columns(z=[r.z for r in records],
                       bitstring=[_bitstring(r.z, inst.n) for r in records],
                       energy=[r.energy for r in records],
                       basin_probability_uniform=[r.basin_probability for r in records])
    return _Outputs({"minima.csv": columns}, f"{len(records)} local minima; "
                    f"global minimum energy {records[0].energy:.6f}")


def _cmd_pipeline(args, out_dir):
    inst, result, files = _transfer(args)

    E = instances.all_classical_energies(inst)
    N = 1 << inst.n
    probs = result.probabilities
    edges = result.energy_edges

    # panel 1: normalized energy weights of DOS, SD, PT, SD-PT
    lab, en, ratio, m_pt, m_u = optimize.enrichment_ratio(inst, probs)
    dos_w, _ = np.histogram(E, bins=edges)
    sd_w, _ = np.histogram(en, bins=edges, weights=m_u)
    sdpt_w, _ = np.histogram(en, bins=edges, weights=m_pt)
    files["fig_energy_panels.csv"] = _Columns(
        bin_lo_energy=edges[:-1], bin_hi_energy=edges[1:],
        dos_weight=dos_w / N, sd_weight=sd_w,
        pt_weight=result.energy_hist, sd_pt_weight=sdpt_w)

    # 1-sigma window around the weighted mean output energy
    lo_e, hi_e = optimize.pt_energy_window(probs, E)
    window = (E >= lo_e) & (E <= hi_e)
    sel = np.nonzero(window)[0]
    d_sel = bits.hamming_array(sel, result.z0)
    pt_win = np.bincount(d_sel, weights=probs[sel], minlength=inst.n + 1)
    uni_win = np.bincount(d_sel, minlength=inst.n + 1).astype(float)
    uni_win /= max(uni_win.sum(), 1.0)
    distances = np.arange(inst.n + 1)
    files["fig_hamming_from_start.csv"] = _Columns(
        hamming_distance=distances, pt_window_weight=pt_win,
        uniform_window_weight=uni_win)

    # pairwise Hamming structure inside the window
    pair_hist = optimize.pair_hamming_histogram(sel, probs[sel], inst.n)
    files["fig_pair_hamming.csv"] = _Columns(hamming_distance=distances,
                                             joint_probability_weight=pair_hist)

    # enrichment of every local minimum
    files["fig_enrichment.csv"] = _Columns(
        z=lab, bitstring=[_bitstring(int(z), inst.n) for z in lab],
        energy=en, basin_mass_uniform=m_u, basin_mass_pt=m_pt,
        enrichment_ratio=ratio)

    window_weight = float(probs[window].sum())
    dos_fraction = float(window.sum()) / N
    finite = np.isfinite(ratio)
    global_ratio = float(ratio[int(np.argmin(en))])
    summary = {
        "z0": result.z0, "z0_energy": float(E[result.z0]),
        "total_time": result.total_time, "saturated": result.saturated,
        "transferred_weight": result.transferred_weight,
        "window": [lo_e, hi_e],
        "window_weight_pt": window_weight,
        "window_dos_fraction": dos_fraction,
        "window_ratio": window_weight / dos_fraction if dos_fraction else math.inf,
        "median_hamming_pt": optimize.median_hamming(result.hamming_hist),
        "alternation_contrast": optimize.alternation_contrast(pair_hist),
        "minima_count": int(len(lab)),
        "enriched_minima": int(np.sum(ratio[finite] > 1.0)),
        "global_min_ratio": "" if math.isnan(global_ratio) else repr(global_ratio),
    }
    files["pipeline_summary.json"] = summary
    return _Outputs(files, f"pipeline: window ratio {summary['window_ratio']:.2f}, "
                    f"median Hamming {summary['median_hamming_pt']:.0f}, "
                    f"alternation {summary['alternation_contrast']:+.4f}, "
                    f"{summary['enriched_minima']} enriched minima")


def _cmd_stats_fit(args, out_dir):
    beta = args["beta"]
    if not -1.0 <= beta <= 1.0:
        raise ValueError(f"--beta must lie in [-1, 1], got {beta}")
    missing = [_flag(k) for k in ("m", "gamma") if args[k] is None]
    if len(missing) == 1:
        raise ValueError(f"stats-fit: {missing[0]} is missing; --m and "
                         "--gamma together select the predicted law")
    ignored = _given(args, **_LAW_DEFAULTS)
    if missing and ignored:
        raise ValueError(f"{ignored[0]} sets the predicted law, which needs "
                         "--m and --gamma")
    config = None if missing else _pblm_config(args)
    cols = _load_checked(args["input"], io_utils.read_csv_columns)
    name = args["column"]
    if name not in cols:
        raise ValueError(f"column {name!r} not in {args['input']}")
    col = cols[name]
    if col.dtype.kind == "U":  # blank cells, such as censored decay rates
        col = np.where(col == "", "nan", col)
    try:
        samples = col.astype(float)
    except ValueError:
        raise ValueError(f"column {name!r} holds non-numeric cells") from None
    samples = samples[np.isfinite(samples)]
    if args["positive_only"]:
        samples = samples[samples > 0]
    fit = pblm.fit_stable_quantiles(samples, beta=beta)
    doc = {"input": str(args["input"]), "column": name,
           "count": int(len(samples)),
           "fit": {"alpha": 1.0, "beta": fit.beta, "C": fit.C,
                   "shift": fit.shift}}
    if config is not None:
        pred = pblm.predicted_gamma_law(config)
        doc["predicted"] = {"sigma_typ": pred.sigma_typ, "scale": pred.scale,
                            "sigma_star": pred.sigma_star, "omega": pred.omega}
        doc["ratios"] = {"shift_over_predicted": fit.shift / pred.sigma_typ,
                         "scale_over_predicted": fit.C / pred.scale}
    return _Outputs({"stats_fit.json": doc}, f"fit: shift {fit.shift:.6g}, "
                    f"scale {fit.C:.6g} ({len(samples)} samples)")


_HANDLERS = {
    "gen-instance": _cmd_gen_instance, "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve, "pt-run": _cmd_pt_run, "downfold": _cmd_downfold,
    "pblm-ensemble": _cmd_pblm_ensemble, "grover-sweep": _cmd_grover_sweep,
    "sd": _cmd_sd, "minima": _cmd_minima, "pipeline": _cmd_pipeline,
    "stats-fit": _cmd_stats_fit}


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
    g.add_argument("--kind", choices=list(_KIND_DEFAULTS), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, help="number of marked states (impurity band)")
    g.add_argument("--w", type=float, help="energy strip width")
    g.add_argument("--b-perp", type=float)
    g.add_argument("--eps-law", choices=["uniform", "gauss"])
    g.add_argument("--dimer-count", type=int)
    g.add_argument("--driver-scale", type=float)
    g.set_defaults(**{k: v for d in _KIND_DEFAULTS.values() for k, v in d.items()})
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="instance.json")

    s = sub.add_parser("spectrum", help="classical density of states")
    s.add_argument("--instance", required=True)
    s.add_argument("--bins", type=int, default=64)

    for name, hlp in [("evolve", "fixed-time evolution, exact on a band"),
                      ("pt-run", "full transfer protocol run, exact on a band"),
                      ("pipeline", "transfer + descent enrichment analysis")]:
        e = sub.add_parser(name, help=hlp)
        e.add_argument("--instance", required=True)
        e.add_argument("--z0", default="auto")
        e.add_argument("--time", type=float, default=None)
        e.add_argument("--steps", type=int, default=None,
                       help="Trotter steps on a glass; a band evolves exactly "
                            "and only samples on this grid")
        e.add_argument("--dt", type=float, default=None,
                       help="Trotter step on a glass, sampling step on a band")
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
    pe.add_argument("--lam", type=float, default=_LAW_DEFAULTS["lam"])
    pe.add_argument("--v-typ", type=float, default=_LAW_DEFAULTS["v_typ"])
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
    sf.add_argument("--lam", type=float, default=_LAW_DEFAULTS["lam"])
    sf.add_argument("--v-typ", type=float, default=_LAW_DEFAULTS["v_typ"])
    return p


def _run(subcommand: str, args: dict, out_dir: Path,
         defaults: dict | None = None) -> io_utils.RunManifest:
    """Run subcommand on args, read over defaults; only once it has returned,
    create out_dir and write its outputs and a manifest of args alone."""
    run = _HANDLERS[subcommand]({**(defaults or {}), **args}, out_dir)
    seeds = [] if args.get("seed") is None else [args["seed"]]
    manifest = io_utils.RunManifest(subcommand, args, [*seeds, *run.seeds])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, output in run.files.items():
        if isinstance(output, _Columns):
            io_utils.write_csv(out_dir / name, output, manifest)
        elif isinstance(output, dict):
            io_utils.write_json(out_dir / name, output, manifest)
        else:
            io_utils.save_downfolded(output, out_dir / name, manifest)
    manifest.write(out_dir)
    if run.line is not None:
        print(run.line)
    return manifest


def _recorded_argv(subcommand, args) -> list[str]:
    """A command line that parses to the recorded args: a True switch is the
    bare flag, a list its values, and None or False is left out."""
    argv = [subcommand]
    for name, value in args.items():
        if value is True:
            argv.append(_flag(name))
        elif isinstance(value, list):
            argv += [_flag(name), *map(str, value)]
        elif value is not None and value is not False:
            argv.append(f"{_flag(name)}={value}")
    return argv


def _replay(manifest_path: str, out_dir_flag: str | None) -> int:
    doc = _load_checked(manifest_path, lambda p: json.loads(Path(p).read_text()))
    if (not isinstance(doc, dict) or doc.get("subcommand") not in _HANDLERS
            or not isinstance(doc.get("args"), dict)):
        raise ValueError(f"{manifest_path}: not a run manifest")
    # the parser checks the recorded args as it checks a command line. The
    # run reads them as recorded, over the defaults of the flags that a
    # manifest can predate, so the manifest hash covers the args as recorded
    ns = build_parser().parse_args(_recorded_argv(doc["subcommand"], doc["args"]))
    # a recorded None is left off that command line, so the parse read the
    # flag's default; where that default is not None the run would read None
    nulled = [_flag(k) for k, v in doc["args"].items()
              if v is None and getattr(ns, k, None) is not None]
    if nulled:
        raise ValueError(f"{manifest_path}: args record null where a value "
                         f"is needed: {', '.join(nulled)}")
    manifest = _run(doc["subcommand"], doc["args"],
                    io_utils.resolve_out_dir(out_dir_flag), vars(ns))
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
        _run(ns.subcommand, args, io_utils.resolve_out_dir(ns.out_dir))
    except ValueError as e:  # invalid or out-of-range input
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, TypeError) as e:  # outputs not written, an internal error
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
