"""Run one pt-lab CLI call with timing spans around the library's layers.

Usage: python3 tracecli.py SPANS_JSON CLI_ARGS...

The public functions listed in SPANNED are replaced, wherever a pt_lab
module has bound them (``from .x import f`` makes a second binding in the
importing module), by wrappers that record a span: name, start, end and
parent.  ``numpy.linalg.eigh`` is recorded only when a ``pblm`` span is
open, so the dense eigendecomposition of the statevector layer stays in
that layer's own time.  Spans are kept in memory and written to
SPANS_JSON when the call ends, together with the time the tracer spent
in its own bookkeeping.  Times come from ``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and therefore comparable between processes.
"""

from __future__ import annotations

import functools
import json
import sys
import time

perf_counter = time.perf_counter

# module -> public functions that get a span; "Class.method" for methods
SPANNED = {
    "statevector": ("run_pt_protocol", "evolve_trotter", "driver_x_diagonal",
                    "exact_eigs"),
    "instances": ("all_classical_energies",),
    "optimize": ("basin_distribution", "enumerate_local_minima"),
    "pblm": ("sample_pblm", "site_self_energies", "participation_ratios",
             "gamma_samples", "fit_stable_quantiles"),
    "downfold": ("build_downfolded",),
    "io_utils": ("write_csv", "write_json", "save_downfolded",
                 "RunManifest.write"),
}
EIGH_SPAN = "numpy.linalg.eigh"
EIGH_PARENT_PREFIX = "pblm."


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.overhead_s = 0.0
        self.missing = []

    def wrap(self, name, fn, parent_prefix=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            if parent_prefix is not None and not (
                    self.stack
                    and self.spans[self.stack[-1]][0].startswith(parent_prefix)):
                self.overhead_s += perf_counter() - t_in
                return fn(*args, **kwargs)
            sid = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.spans.append(span)
            self.stack.append(sid)
            t0 = perf_counter()
            self.overhead_s += t0 - t_in
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                span[1], span[2] = t0, t1
                self.stack.pop()
                self.overhead_s += perf_counter() - t1

        return traced

    def install(self):
        import numpy as np

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pt_lab" or name.startswith("pt_lab."))]
        for short, names in SPANNED.items():
            mod = sys.modules.get(f"pt_lab.{short}")
            for name in names:
                owner, attr = mod, name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    # renamed or removed by a later change: its metric reads 0
                    self.missing.append(f"{short}.{name}")
                    continue
                wrapper = self.wrap(f"{short}.{name}", original)
                if owner is not mod:
                    setattr(owner, attr, wrapper)
                    continue
                for m in modules:
                    for bound_name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, bound_name, wrapper)
        np.linalg.eigh = self.wrap(EIGH_SPAN, np.linalg.eigh, EIGH_PARENT_PREFIX)

    def run_cli(self, argv):
        import pt_lab.cli

        main = self.wrap("cli.main", pt_lab.cli.main)
        return main(argv)

    def dump(self, path, install_s):
        t0 = perf_counter()
        spans = json.dumps(self.spans)
        overhead_s = self.overhead_s + install_s + (perf_counter() - t0)
        with open(path, "w") as f:
            f.write(f'{{"missing": {json.dumps(self.missing)}, '
                    f'"overhead_s": {overhead_s!r}, "spans": {spans}}}')


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracecli.py SPANS_JSON CLI_ARGS...", file=sys.stderr)
        return 2
    import pt_lab.cli  # noqa: F401  (an untraced call pays this import too)

    tracer = Tracer()
    t0 = perf_counter()
    tracer.install()
    install_s = perf_counter() - t0
    rc = 1
    try:
        rc = tracer.run_cli(argv[1:])
    finally:
        tracer.dump(argv[0], install_s)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
