"""Run manifests and file emission shared by the command-line tools.

Every run writes a manifest.json recording the subcommand, its full
argument set, seeds, and the sha256 of each emitted file; the manifest
hash is stamped into every CSV (comment line) and JSON (field) so files
can be traced back to the run that produced them. Replaying a manifest
re-executes the recorded command and verifies the hashes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

FORMAT_VERSION = 1
ENV_OUT_DIR = "PT_LAB_OUT"
DEFAULT_OUT_DIR = "pt_lab_out"


def resolve_out_dir(flag_value: str | None) -> Path:
    """The run directory: explicit --out-dir wins, then the PT_LAB_OUT
    variable, then ./pt_lab_out. Only resolved; the run creates it when it
    writes its outputs."""
    return Path(flag_value or os.environ.get(ENV_OUT_DIR) or DEFAULT_OUT_DIR)


def _canonical_json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=True, default=_json_default).encode()


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def sha256_file(path) -> str:
    # hashlib maps OpenSSL's libcrypto (about 3.6 MB resident), so it is
    # imported at the first hash, after the run's handler has returned and
    # released its state arrays
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    subcommand: str
    args: dict
    seeds: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    version: str = __version__
    format_version: int = FORMAT_VERSION

    @property
    def hash(self) -> str:
        import hashlib

        doc = {"subcommand": self.subcommand, "args": self.args,
               "seeds": self.seeds,
               "version": self.version, "format_version": self.format_version}
        return hashlib.sha256(_canonical_json(doc)).hexdigest()[:16]

    def record(self, path: Path):
        self.outputs.append({"path": str(path), "sha256": sha256_file(path)})

    def write(self, out_dir: Path) -> Path:
        doc = {
            "format_version": self.format_version,
            "version": self.version,
            "subcommand": self.subcommand,
            "args": self.args,
            "seeds": self.seeds,
            "manifest_hash": self.hash,
            "outputs": self.outputs,
        }
        path = out_dir / "manifest.json"
        write_json(path, doc)
        return path


def _cell(value):
    """None and NaN are written blank; csv writes every other value as is,
    a float or np.float64 as its repr."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return value


def write_csv(path: Path, columns: dict, manifest: RunManifest | None = None):
    """CSV with a traceability comment line and a named header row; columns
    maps each name, in order, to a sequence of that column's cells. Columns
    of unequal length are a ValueError, raised before the file is opened."""
    lengths = {name: len(cells) for name, cells in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    with open(path, "w", newline="") as f:
        if manifest is not None:
            f.write(f"# manifest_hash={manifest.hash} version={manifest.version}\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(zip(*([_cell(v) for v in cells]
                               for cells in columns.values())))
    if manifest is not None:
        manifest.record(path)


def write_json(path: Path, doc: dict, manifest: RunManifest | None = None):
    out = dict(doc)
    out.setdefault("format_version", FORMAT_VERSION)
    if manifest is not None:
        out["manifest_hash"] = manifest.hash
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True, default=_json_default)
        f.write("\n")
    if manifest is not None:
        manifest.record(path)


def read_csv_columns(path) -> dict:
    """Read a CSV written by write_csv back into named float columns; a
    file with no header row is a ValueError."""
    with open(path) as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError("no header row")
    cols = {name: [] for name in header}
    for row in reader:
        for name, val in zip(header, row):
            cols[name].append(val)
    out = {}
    for name, vals in cols.items():
        try:
            out[name] = np.array([float(v) for v in vals])
        except ValueError:
            out[name] = np.array(vals)
    return out


# ---------------------------------------------------------------------------
# downfolded-matrix persistence


def save_downfolded(mat: DownfoldedMatrix, base: Path,
                    manifest: RunManifest | None = None) -> list[Path]:
    """Dense little-endian float64 blob plus its JSON metadata sidecar; the
    one format that load_downfolded reads."""
    base = Path(base)
    bin_path = base.with_suffix(".bin")
    with open(bin_path, "wb") as f:
        f.write(np.ascontiguousarray(mat.matrix, dtype="<f8").tobytes())
    meta = {
        "M": mat.M, "n": mat.n, "B_perp": mat.B_perp,
        "V_typ": mat.V_typ, "W": mat.W, "shift": mat.shift,
        "dtype": "<f8", "order": "C",
    }
    json_path = base.with_suffix(".json")
    write_json(json_path, meta, manifest)
    if manifest is not None:
        manifest.record(bin_path)
    return [bin_path, json_path]


def load_downfolded(base: Path) -> DownfoldedMatrix:
    from .downfold import DownfoldedMatrix

    base = Path(base)
    with open(base.with_suffix(".json")) as f:
        meta = json.load(f)
    raw = np.fromfile(base.with_suffix(".bin"), dtype="<f8")
    M = meta["M"]
    matrix = raw.reshape(M, M)
    return DownfoldedMatrix(matrix=matrix, V_typ=meta["V_typ"], W=meta["W"],
                            B_perp=meta.get("B_perp"), n=meta.get("n"),
                            shift=meta.get("shift", 0.0))
