#!/usr/bin/env python3
"""End-to-end benchmark of the pt-lab command-line tool.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of glass-pipeline, impurity-band, levy-ensemble, or "all".
Every CLI call runs as a fresh ``python3 -m pt_lab.cli`` process, one at a
time, with the package taken from ``src/`` of this checkout, so that
per-process costs such as the stable-law quantile table count as a user
would pay them.  One operation is the workload's whole CLI chain; the run
repeats operations until their wall time adds up to S seconds (at least
one).  Outputs are checked after each operation, outside its timing.

--trace 0 reports the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb); --trace 1 runs the same chain through tracecli.py and
reports per-layer self times and counts.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACECLI = HERE / "tracecli.py"

SETUP_REPEATS = 5
# a benchmark invocation must end within 180 s: no operation starts once
# it could end after RUN_BUDGET_S, and any process still running at
# RUN_DEADLINE_S is killed (its operation then counts as failed)
RUN_BUDGET_S = 120.0
RUN_DEADLINE_S = 165.0

# scipy.stats.levy_stable.ppf([0.25, 0.5, 0.75], alpha=1, beta=1), S1
# parameterization (scipy 1.17.1); the test suite freezes the same values
# and holds the package's own quantile table to them within 1e-3.
S1_QUARTILES = (-0.41776476405072027, 0.5756301439450777, 2.5508156828204567)
QUARTILE_ATOL = 1e-3


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Call:
    argv: list
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    log: Path


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(cmd: list, log: Path, deadline: float) -> Call:
    """Run one process to completion; its own rusage comes from wait4.

    The process is killed if it is still running at `deadline`
    (a time.perf_counter value).
    """
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(argv=cmd, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, returncode=proc.returncode,
                log=log)


def cli_cmd(args: list, spans: Path | None = None) -> list:
    if spans is None:
        return [sys.executable, "-m", "pt_lab.cli", *map(str, args)]
    return [sys.executable, str(TRACECLI), str(spans), *map(str, args)]


# ---------------------------------------------------------------------------
# artifact readers used by the checks


def read_csv(path: Path) -> dict:
    """Columns of a CSV written by pt_lab.io_utils.write_csv, as strings."""
    with open(path, newline="") as f:
        rows = list(csv.reader(ln for ln in f if not ln.startswith("#")))
    if not rows:
        raise ValueError(f"{path.name}: empty")
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError(f"{path.name}: ragged rows")
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def floats(values) -> np.ndarray:
    return np.array([float(v) if v != "" else math.nan for v in values])


def read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def sums_to_one(path: Path, columns, tol=1e-8) -> list:
    cols = read_csv(path)
    problems = []
    for c in columns:
        total = float(floats(cols[c]).sum())
        if not abs(total - 1.0) <= tol:
            problems.append(f"{path.name}:{c} sums to {total!r}, not 1")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One set of inputs: set-up calls, the timed CLI chain and its checks."""

    name = ""
    why = ""

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.toy = toy

    def setup_calls(self, inp: Path) -> list:
        return []

    def op_calls(self, inp: Path) -> list:
        """[(output subdirectory, CLI arguments)] of one operation."""
        raise NotImplementedError

    def check(self, inp: Path, out: Path) -> list:
        raise NotImplementedError

    def trotter_steps(self, out: Path) -> int:
        return 0

    def decay_useful_ratio(self, out: Path) -> float:
        return 0.0

    def describe(self) -> list:
        return []


# pipeline_summary.json of glass-pipeline at seed 3, n=16, from the seed
# commit of this benchmark; counts must match exactly, floats to 1e-6
GLASS_SEED3 = {
    "alternation_contrast": 0.8560145837071739,
    "enriched_minima": 10,
    "global_min_ratio": "3.7541495464492187",
    "median_hamming_pt": 2.0,
    "minima_count": 206,
    "saturated": False,
    "total_time": 20.0,
    "transferred_weight": 0.7771634860684236,
    "window": [-51.372008694662064, -36.279500954162266],
    "window_dos_fraction": 0.0013427734375,
    "window_ratio": 703.1667089832158,
    "window_weight_pt": 0.9441935789569548,
    "z0": 59518,
    "z0_energy": -46.92063492063491,
}
GLASS_EXACT = {"enriched_minima", "minima_count", "saturated", "z0",
               "median_hamming_pt", "total_time"}


def same_within(got, want, rel=1e-6) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_within(g, w, rel) for g, w in zip(got, want)))
    if isinstance(want, str):
        got, want = float(got), float(want)
    return math.isclose(got, want, rel_tol=rel, abs_tol=0.0)


class GlassPipeline(Workload):
    name = "glass-pipeline"
    why = ("main user workflow: matched-driver Trotter/FWHT on a 1 MiB state, "
           "2^n energies 8x and basin roots 5x, ~100 KB of CSV")
    DT = 0.1

    @property
    def n(self):
        return 8 if self.toy else 16

    def setup_calls(self, inp):
        return [["--out-dir", inp, "gen-instance", "--kind", "spin-glass",
                 "--n", self.n, "--seed", self.seed]]

    def op_calls(self, inp):
        # one doubling of the transfer ladder: the step count (200) does not
        # depend on the instance, so the work is the same for every seed
        return [("pipeline", ["pipeline", "--instance", inp / "instance.json",
                              "--dt", self.DT, "--start-time", 10,
                              "--max-doublings", 1, "--saturation-rtol", 0.01])]

    def check(self, inp, out):
        d = out / "pipeline"
        problems = sums_to_one(d / "pt_hamming_hist.csv", ["probability"])
        problems += sums_to_one(d / "fig_energy_panels.csv",
                                ["dos_weight", "sd_weight", "pt_weight",
                                 "sd_pt_weight"])
        problems += sums_to_one(d / "fig_enrichment.csv",
                                ["basin_mass_uniform", "basin_mass_pt"])
        summary = read_json(d / "pipeline_summary.json")
        if self.seed == 3 and not self.toy:
            for key, want in GLASS_SEED3.items():
                got = summary.get(key)
                ok = got == want if key in GLASS_EXACT else (
                    got is not None and same_within(got, want))
                if not ok:
                    problems.append(f"pipeline_summary.json:{key} = {got!r}, "
                                    f"seed commit gave {want!r}")
        return problems

    def trotter_steps(self, out):
        summary = read_json(out / "pipeline" / "pipeline_summary.json")
        return round(summary["total_time"] / self.DT)

    def describe(self):
        return [f"spin glass n={self.n}, state {16 << self.n} B"]


def band_eigenvalues(inst: dict) -> np.ndarray:
    """Impurity-band energies from a dense diagonalisation built here.

    H = sum_j (base + eps_j) |z_j><z_j| - B_perp sum_i sigma^x_i; the band
    is the M eigenstates with the largest weight on the marked states.
    """
    n, B = inst["n"], inst["B_perp"]
    marked = np.array(inst["marked"], dtype=np.int64)
    N = 1 << n
    H = np.zeros((N, N))
    H[marked, marked] = inst["base_energy"] + np.array(inst["eps"])
    rows = np.arange(N)
    for i in range(n):
        H[rows, rows ^ (1 << i)] = -B
    vals, vecs = np.linalg.eigh(H)
    weight = (vecs[marked, :] ** 2).sum(axis=0)
    return np.sort(vals[np.argsort(weight)[-len(marked):]])


class ImpurityBand(Workload):
    name = "impurity-band"
    why = ("downfold layer and the dense statevector path (a), plus the only "
           "uniform-driver evolution, on a 16 MiB state (b)")
    M_BAND = 6
    M_EVOLVE = 64

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self._band = None

    @property
    def n_band(self):
        return 8 if self.toy else 11

    @property
    def n_evolve(self):
        return 8 if self.toy else 20

    def setup_calls(self, inp):
        return [["--out-dir", inp, "gen-instance", "--kind", "impurity-band",
                 "--n", self.n_band, "--m", self.M_BAND, "--w", 0.5,
                 "--b-perp", 2, "--seed", self.seed, "--out", "band.json"],
                ["--out-dir", inp, "gen-instance", "--kind", "impurity-band",
                 "--n", self.n_evolve, "--m", self.M_EVOLVE, "--w", 0.5,
                 "--b-perp", 2, "--seed", self.seed, "--out", "evolve.json"]]

    def op_calls(self, inp):
        return [("downfold", ["downfold", "--instance", inp / "band.json",
                              "--phase-mode", "numeric_extraction"]),
                ("evolve", ["evolve", "--instance", inp / "evolve.json",
                            "--time", 10, "--steps", 10])]

    def check(self, inp, out):
        problems = []
        inst = read_json(inp / "band.json")
        if self._band is None:  # once per seed and run
            self._band = band_eigenvalues(inst)
        meta = read_json(out / "downfold" / "downfolded.json")
        M = meta["M"]
        raw = np.fromfile(out / "downfold" / "downfolded.bin", dtype="<f8")
        if M != len(inst["marked"]) or raw.size != M * M:
            problems.append(f"downfolded.bin holds {raw.size} values, want {M}^2")
        else:
            eff = np.sort(np.linalg.eigvalsh(raw.reshape(M, M))) + inst["base_energy"]
            dev = float(np.max(np.abs(eff - self._band)))
            if not dev <= 0.1 * inst["W"]:
                problems.append(f"downfolded band off by {dev:.3g} > 0.1 W")
        norm = read_json(out / "evolve" / "evolve.json")["norm"]
        if not abs(norm - 1.0) <= 1e-8:
            problems.append(f"evolve.json norm {norm!r}")
        return problems

    def trotter_steps(self, out):
        return int(read_json(out / "evolve" / "evolve.json")["steps"])

    def describe(self):
        return [f"(a) band n={self.n_band} M={self.M_BAND}, dense H "
                f"{8 << (2 * self.n_band)} B",
                f"(b) evolve n={self.n_evolve} M={self.M_EVOLVE}, state "
                f"{16 << self.n_evolve} B"]


class LevyEnsemble(Workload):
    name = "levy-ensemble"
    why = ("ensemble path of the paper: eigh, self-energies, participation "
           "ratios, per-site decay fits and the stable-law quantile fit")
    GAMMA = 1.5
    R = 2

    @property
    def M(self):
        return 64 if self.toy else 192

    def op_calls(self, inp):
        return [("ensemble", ["pblm-ensemble", "--m", self.M, "--gamma",
                              self.GAMMA, "--realizations", self.R,
                              "--fit-gammas", "--seed", self.seed])]

    def check(self, inp, out):
        d = out / "ensemble"
        problems = []
        fit = read_json(d / "pblm_fit.json")
        sites = read_csv(d / "pblm_sites.csv")
        rows = len(sites["site"])
        if rows != self.R * self.M:
            problems.append(f"pblm_sites.csv has {rows} rows, want {self.R * self.M}")
        rates = floats(sites["gamma_rate"])
        blank = int(np.isnan(rates).sum())
        if np.any(rates[~np.isnan(rates)] <= 0):
            problems.append("a decay rate is not positive")
        censored = fit.get("censored_fraction")
        if censored is None or not math.isclose(censored, blank / rows,
                                                rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"censored_fraction {censored!r}, CSV has "
                            f"{blank}/{rows} blank rates")
        # quantile fit redone from the CSV with the frozen scipy quartiles;
        # the package's own table may differ from them by QUARTILE_ATOL each
        s2 = floats(sites["sigma_doubleprime_energy"])
        s2 = s2[s2 > 0]
        q25, q50, q75 = S1_QUARTILES
        s25, s50, s75 = np.percentile(s2, [25.0, 50.0, 75.0])
        C = (s75 - s25) / (q75 - q25)
        shift = s50 - C * q50
        c_rel = 2 * QUARTILE_ATOL / (q75 - q25 - 2 * QUARTILE_ATOL)
        shift_tol = C * (c_rel * abs(q50) + QUARTILE_ATOL * (1 + c_rel))
        got = fit["fitted_sigma2"]
        if not abs(got["scale"] - C) <= C * c_rel * (1 + 1e-9):
            problems.append(f"fitted scale {got['scale']!r}, CSV gives {C!r}")
        if not abs(got["shift"] - shift) <= shift_tol * (1 + 1e-9):
            problems.append(f"fitted shift {got['shift']!r}, CSV gives {shift!r}")
        omegas = floats(read_csv(d / "pblm_states.csv")["participation_ratio"])
        med = fit["median_participation_ratio"]
        if not (1.0 <= med <= self.M and math.isclose(med, float(np.median(omegas)),
                                                      rel_tol=1e-12)):
            problems.append(f"median participation ratio {med!r}")
        return problems

    def decay_useful_ratio(self, out):
        rates = floats(read_csv(out / "ensemble" / "pblm_sites.csv")["gamma_rate"])
        return float(np.isfinite(rates).sum() / len(rates))

    def describe(self):
        return [f"M={self.M}, R={self.R}, gamma={self.GAMMA}, --fit-gammas"]


WORKLOADS = {w.name: w for w in (GlassPipeline, ImpurityBand, LevyEnsemble)}


# ---------------------------------------------------------------------------
# metrics

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))

# per-layer time = summed self time of these spans (tracecli.SPANNED)
LAYER_TIMES = {
    "statevector.trotter_s": ("statevector.run_pt_protocol",
                              "statevector.evolve_trotter"),
    "statevector.driver_s": ("statevector.driver_x_diagonal",),
    "statevector.dense_s": ("statevector.exact_eigs",),
    "instances.energy_s": ("instances.all_classical_energies",),
    "optimize.basin_s": ("optimize.basin_distribution",
                         "optimize.enumerate_local_minima"),
    "pblm.quantile_fit_s": ("pblm.fit_stable_quantiles",),
    "pblm.eigh_s": ("numpy.linalg.eigh",),
    "pblm.sample_s": ("pblm.sample_pblm",),
    "pblm.self_energy_s": ("pblm.site_self_energies",),
    "pblm.participation_s": ("pblm.participation_ratios",),
    "pblm.decay_fit_s": ("pblm.gamma_samples",),
    "downfold.project_s": ("downfold.build_downfolded",),
    "io_utils.write_s": ("io_utils.write_csv", "io_utils.write_json",
                         "io_utils.save_downfolded", "io_utils.RunManifest.write"),
    "cli.self_s": ("cli.main",),
}
# per-layer count = number of these spans
LAYER_COUNTS = {
    "instances.energy_calls": LAYER_TIMES["instances.energy_s"],
    "optimize.basin_calls": LAYER_TIMES["optimize.basin_s"],
    "pblm.quantile_fit_calls": LAYER_TIMES["pblm.quantile_fit_s"],
    "pblm.eigh_calls": LAYER_TIMES["pblm.eigh_s"],
}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "statevector.trotter_steps": "count",
    "statevector.step_ms": "ms",
    "pblm.decay_useful_ratio": "ratio",
    "io_utils.bytes_written": "bytes",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(wl: Workload, out: Path, docs: list, op_wall: float) -> dict:
    """Per-layer metrics of one operation from the span dumps of its calls."""
    self_s, calls = defaultdict(float), Counter()
    covered = overhead = 0.0
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, parent), inner in zip(spans, child):
            self_s[name] += (end - start) - inner
            calls[name] += 1
            if parent is None:
                covered += end - start
        overhead += doc["overhead_s"]
    steps = wl.trotter_steps(out)
    metrics = {m: sum(self_s[n] for n in names) for m, names in LAYER_TIMES.items()}
    metrics.update({m: sum(calls[n] for n in names)
                    for m, names in LAYER_COUNTS.items()})
    metrics["statevector.trotter_steps"] = steps
    metrics["statevector.step_ms"] = (
        1e3 * metrics["statevector.trotter_s"] / steps if steps else 0.0)
    metrics["pblm.decay_useful_ratio"] = wl.decay_useful_ratio(out)
    metrics["io_utils.bytes_written"] = output_bytes(out)
    metrics["trace.uncovered_s"] = op_wall - covered
    metrics["trace.overhead_s"] = overhead
    return metrics


def output_bytes(out: Path) -> int:
    """Bytes the CLI calls of one operation wrote into their run directories."""
    return sum(p.stat().st_size for p in out.glob("*/*") if p.is_file())


# ---------------------------------------------------------------------------
# one benchmark run


@dataclass
class RunResult:
    setup_s: list = field(default_factory=list)
    op_wall: list = field(default_factory=list)
    op_cpu: list = field(default_factory=list)
    op_rss: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_setup(wl: Workload, work: Path, result: RunResult, deadline: float) -> Path:
    """Fresh-interpreter import plus the gen-instance calls, repeated."""
    inp = None
    for rep in range(SETUP_REPEATS):
        inp = work / f"input{rep}"
        inp.mkdir(parents=True)
        calls = [run_child([sys.executable, "-c", "import pt_lab.cli"],
                           work / f"setup{rep}-import.log", deadline)]
        for k, args in enumerate(wl.setup_calls(inp)):
            calls.append(run_child(cli_cmd(args), work / f"setup{rep}-{k}.log",
                                   deadline))
        bad = [c for c in calls if c.returncode != 0]
        if bad:
            raise RuntimeError(f"set-up call failed ({bad[0].returncode}): "
                               f"{' '.join(map(str, bad[0].argv))}\n"
                               + bad[0].log.read_text()[-2000:])
        result.setup_s.append(sum(c.wall_s for c in calls))
    return inp


def run_operation(wl: Workload, inp: Path, out: Path, traced: bool,
                  deadline: float):
    """The timed CLI chain; stops at the first call that fails."""
    calls = []
    t0 = time.perf_counter()
    for sub, args in wl.op_calls(inp):
        d = out / sub
        d.mkdir(parents=True)
        spans = out / f"{sub}.spans.json" if traced else None
        call = run_child(cli_cmd(["--out-dir", d, *args], spans),
                         out / f"{sub}.log", deadline)
        calls.append(call)
        if call.returncode != 0:
            break
    return time.perf_counter() - t0, calls


def run_workload(wl: Workload, seconds: float, traced: bool) -> RunResult:
    work = WORK / f"{wl.name}-{wl.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = RunResult()
    t_run = time.perf_counter()
    deadline = t_run + RUN_DEADLINE_S
    try:
        inp = run_setup(wl, work, result, deadline)
        measured = 0.0
        while result.attempted == 0 or measured < seconds:
            elapsed = time.perf_counter() - t_run
            if result.attempted and elapsed + max(result.op_wall) > RUN_BUDGET_S:
                break
            out = work / f"op{result.attempted}"
            out.mkdir()
            wall, calls = run_operation(wl, inp, out, traced, deadline)
            result.attempted += 1
            measured += wall
            result.op_wall.append(wall)
            result.op_cpu.append(sum(c.cpu_s for c in calls))
            result.op_rss.append(max(c.rss_mb for c in calls))
            problems = [f"exit {c.returncode}: {' '.join(map(str, c.argv[-12:]))}: "
                        + c.log.read_text().strip()[-300:]
                        for c in calls if c.returncode != 0]
            if not problems:
                try:
                    problems = wl.check(inp, out)
                except (OSError, ValueError, KeyError, IndexError, TypeError,
                        AttributeError, csv.Error) as e:
                    problems = [f"unreadable artifact: {type(e).__name__}: {e}"]
            if problems:
                result.failed += 1
                result.problems.extend(problems)
            elif traced:
                docs = [read_json(f) for f in sorted(out.glob("*.spans.json"))]
                result.layers.append(layer_metrics(wl, out, docs, wall))
                result.spans.append({"op": result.attempted - 1, "calls": docs})
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if traced:
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{wl.name}-seed{wl.seed}.json", "w") as f:
            json.dump(result.spans, f)
    return result


# ---------------------------------------------------------------------------
# machine facts


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "?"


def blas_facts() -> str:
    import ctypes

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "?"
    maps = _read("/proc/self/maps")
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps)))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if k in os.environ}
    return (f"{info.get('name')} {info.get('version')}, threads {threads} "
            f"(environment {env or 'unset: OpenBLAS uses up to nproc'}; "
            f"children inherit it)")


def cache_sizes() -> str:
    parts = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if kind != "Instruction":
            parts.append(f"L{level} {_read(idx / 'size')} "
                         f"(cpus {_read(idx / 'shared_cpu_list')})")
    return ", ".join(parts) or "?"


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "pt_lab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "?"


def machine_facts() -> list:
    import scipy

    model = re.search(r"model name\s*:\s*(.*)", _read("/proc/cpuinfo"))
    return [
        f"nproc {os.cpu_count()} (affinity {len(os.sched_getaffinity(0))}), "
        f"cpu {model.group(1) if model else platform.processor() or '?'}",
        f"caches {cache_sizes()}; state sizes below are computed, compare "
        f"them with L2 (the shared L3 a VM reports may not be real)",
        f"blas {blas_facts()}",
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}",
        f"commit {commit()}, src/pt_lab sha256 {source_digest()}",
    ]


# ---------------------------------------------------------------------------
# reporting


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def report(wl: Workload, result: RunResult, traced: bool) -> dict:
    print(f"# workload {wl.name} seed {wl.seed}"
          f"{' (toy sizes)' if wl.toy else ''}: {wl.why}")
    for line in wl.describe():
        print(f"#   {line}")
    if traced:
        units = PER_LAYER_UNITS
        metrics = {name: median([layer[name] for layer in result.layers])
                   for name in units}
        count = f"median of {len(result.layers)} traced operations"
        missing = sorted({name for op in result.spans for doc in op["calls"]
                          for name in doc["missing"]})
        if missing:
            print(f"# no span (function not found): {', '.join(missing)}")
    else:
        units = dict(END_TO_END)
        metrics = {"setup_s": median(result.setup_s),
                   "wall_s": median(result.op_wall),
                   "cpu_s": median(result.op_cpu),
                   "peak_rss_mb": median(result.op_rss)}
        count = f"median of {result.attempted} operations"
    for name, unit in units.items():
        n = f"{SETUP_REPEATS} set-ups" if name == "setup_s" else count
        print(f"{name:28s} {metrics[name]:14.6g} {unit:6s} ({n})")
    if not traced:
        for name, samples in (("setup_s", result.setup_s), ("wall_s", result.op_wall)):
            print(f"# {name} samples: " + " ".join(f"{v:.4g}" for v in samples))
    frac = result.failed / result.attempted if result.attempted else 1.0
    print(f"{'fail_frac':28s} {frac:14.6g} {'ratio':6s} "
          f"({result.failed} failed / {result.attempted} attempted)")
    for p in result.problems[:20]:
        print(f"# FAILED CHECK: {p}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: 3 for glass-pipeline, else 0)")
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes (n=8, M=64) for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "pt_lab" / "cli.py").is_file():
        print(f"error: no pt-lab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for line in machine_facts():
        print(f"# {line}")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        seed = args.seed if args.seed is not None else (
            3 if name == "glass-pipeline" else 0)
        wl = WORKLOADS[name](seed, args.toy)
        try:
            result = run_workload(wl, args.seconds, bool(args.trace))
        except RuntimeError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        metrics = report(wl, result, bool(args.trace))
        doc = {"correct": result.failed == 0, "attempted": result.attempted,
               "failed": result.failed, "metrics": metrics}
        total["correct"] &= doc["correct"]
        total["attempted"] += result.attempted
        total["failed"] += result.failed
        total["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
        if len(names) > 1:
            print(json.dumps(doc))
    print(json.dumps(doc if len(names) == 1 else total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
