#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (spin glass n=8, ensemble M=64).

Usage, from the repository root:

    python3 perfbench/selftest.py

It takes about three minutes, most of it the two stable-law quantile
tables of the traced levy-ensemble runs.  It checks that

1. every metric named in BENCHMARK.json is printed by name with its unit,
   and the JSON result carries exactly those metrics;
2. a truncated or corrupted artifact counts as a failed operation;
3. the span counts repeat exactly between two traced runs, at the values
   the toy sizes imply (8 energy passes and 5 basin passes per pipeline,
   3 eigendecompositions per ensemble realization);
4. the frozen S1 quartiles used by the levy-ensemble check are scipy's.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import numpy as np

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
LINE = re.compile(r"^([A-Za-z]\S*)\s+(\S+)\s+(\S+)\s+\(")

failures = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench_run(workload: str, trace: int) -> tuple[dict, dict]:
    """Printed (value, unit) per metric name, and the final JSON object."""
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    return printed, json.loads(lines[-1])


def check_names(workload: str, trace: int, printed: dict, doc: dict):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    expect(all(printed.get(n, (0, None))[1] == u for n, u in want.items())
           and printed.get("fail_frac", (0, None))[1] == "ratio",
           f"{workload} --trace {trace}: every metric printed with its unit")
    expect({n: v["unit"] for n, v in doc["metrics"].items()} == want,
           f"{workload} --trace {trace}: JSON metrics are exactly BENCHMARK.json's")
    expect(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
           f"{workload} --trace {trace}: outputs pass their checks")


def check_counts(workload: str, first: dict, second: dict, want: dict):
    for name, value in want.items():
        a, b = first[name][0], second[name][0]
        expect(a == b == value,
               f"{workload}: {name} repeats exactly ({a:g}, {b:g}; want {value:g})")


class TruncatedGlass(bench.GlassPipeline):
    def check(self, inp, out):
        f = out / "pipeline" / "pt_hamming_hist.csv"
        data = f.read_bytes()
        f.write_bytes(data[: len(data) // 2])
        return super().check(inp, out)


class CorruptJsonGlass(bench.GlassPipeline):
    def check(self, inp, out):
        (out / "pipeline" / "pipeline_summary.json").write_text('{"z0": ')
        return super().check(inp, out)


class CorruptBand(bench.ImpurityBand):
    def check(self, inp, out):
        f = out / "downfold" / "downfolded.bin"
        mat = np.fromfile(f, dtype="<f8")
        (mat * 1.5).astype("<f8").tofile(f)
        return super().check(inp, out)


class DriftedNorm(bench.ImpurityBand):
    def check(self, inp, out):
        f = out / "evolve" / "evolve.json"
        doc = json.loads(f.read_text())
        doc["norm"] = 1.0 + 1e-6
        f.write_text(json.dumps(doc))
        return super().check(inp, out)


def main() -> int:
    s1 = None
    try:
        from scipy.stats import levy_stable

        s1 = levy_stable.ppf([0.25, 0.5, 0.75], 1.0, 1.0)
    except ImportError:
        print("skip scipy quartile check: scipy not importable")
    if s1 is not None:
        expect(np.allclose(s1, bench.S1_QUARTILES, rtol=1e-12, atol=0),
               "frozen S1 quartiles equal scipy levy_stable.ppf")

    for cls in (TruncatedGlass, CorruptJsonGlass, CorruptBand, DriftedNorm):
        result = bench.run_workload(cls(1, True), seconds=0.01, traced=False)
        expect(result.attempted == 1 and result.failed == 1,
               f"{cls.__name__}: the damaged artifact counts as failed "
               f"({result.failed}/{result.attempted}: {result.problems[:1]})")

    for workload in ("glass-pipeline", "impurity-band"):
        printed, doc = bench_run(workload, 0)
        check_names(workload, 0, printed, doc)

    counts = {
        "glass-pipeline": {"instances.energy_calls": 8, "optimize.basin_calls": 5},
        "impurity-band": {"instances.energy_calls": 3, "optimize.basin_calls": 0},
        "levy-ensemble": {"pblm.eigh_calls": 3 * bench.LevyEnsemble.R,
                          "pblm.quantile_fit_calls": 2},
    }
    for workload, want in counts.items():
        first, doc = bench_run(workload, 1)
        check_names(workload, 1, first, doc)
        second, _ = bench_run(workload, 1)
        check_counts(workload, first, second, want)

    print(f"{len(failures)} failed check(s)" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
