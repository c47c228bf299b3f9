"""File emission, run manifests, and the command-line front end.

CLI subcommands run in-process through main(argv) so exit codes and
emitted artifacts can be checked without subprocess plumbing.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pt_lab
from pt_lab.cli import _run, _top_k_rows, main
from pt_lab.downfold import (DownfoldedMatrix, TunnelingParams, build_downfolded,
                             marked_eigensystem)
from pt_lab.instances import (all_classical_energies, gen_impurity_band,
                              gen_spin_glass, instance_to_dict, load_instance)
from pt_lab.io_utils import (RunManifest, load_downfolded, read_csv_columns,
                             resolve_out_dir, save_downfolded, sha256_file,
                             write_csv, write_json)
from pt_lab.optimize import enumerate_local_minima, steepest_descent


@pytest.fixture(autouse=True)
def _no_out_dir_env(monkeypatch):
    # every CLI call below passes --out-dir explicitly; a leaked
    # PT_LAB_OUT from the developer shell must not redirect it
    monkeypatch.delenv("PT_LAB_OUT", raising=False)


@pytest.fixture(scope="module")
def ib_instance(tmp_path_factory):
    d = tmp_path_factory.mktemp("ib")
    rc = main(["--out-dir", str(d), "gen-instance", "--kind", "impurity-band",
               "--n", "8", "--m", "3", "--w", "0.5", "--seed", "7"])
    assert rc == 0
    return d / "instance.json"


@pytest.fixture(scope="module")
def glass_instance(tmp_path_factory):
    d = tmp_path_factory.mktemp("glass")
    rc = main(["--out-dir", str(d), "gen-instance", "--kind", "spin-glass",
               "--n", "10", "--seed", "1"])
    assert rc == 0
    return d / "instance.json"


# ---------------------------------------------------------------- io_utils

def test_csv_roundtrip_with_manifest_stamp(tmp_path):
    manifest = RunManifest(subcommand="t", args={"x": 1})
    path = tmp_path / "t.csv"
    write_csv(path, {"a": [1.0, 3.0], "b": [2.5, None]}, manifest)
    first = path.read_text().splitlines()[0]
    assert first == f"# manifest_hash={manifest.hash} version={manifest.version}"
    cols = read_csv_columns(path)
    assert np.array_equal(cols["a"], [1.0, 3.0])
    # the None cell keeps the column textual rather than silently NaN
    assert cols["b"].dtype.kind == "U"
    assert list(cols["b"]) == ["2.5", ""]


def test_csv_bytes_pin_cell_format_and_line_endings(tmp_path):
    manifest = RunManifest(subcommand="t", args={})
    path = tmp_path / "t.csv"
    count = np.array([3, 4, 5])
    assert isinstance(count[0], np.int64)
    write_csv(path, {"value": np.array([0.1, 1e-07, np.nan]), "count": count,
                     "label": ["x", None, "z"]}, manifest)
    # the stamp ends in \n, the csv rows in \r\n; None and NaN are blank
    assert path.read_bytes() == (
        f"# manifest_hash={manifest.hash} version={manifest.version}\n"
        "value,count,label\r\n0.1,3,x\r\n1e-07,4,\r\n,5,z\r\n").encode()


def test_csv_columns_of_unequal_length_write_nothing(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="length"):
        write_csv(path, {"a": [1.0, 2.0], "b": [1.0]})
    assert not path.exists()


def test_write_json_stamps_format_and_hash(tmp_path):
    manifest = RunManifest(subcommand="t", args={})
    path = tmp_path / "t.json"
    write_json(path, {"value": np.float64(2.0), "arr": np.arange(3)}, manifest)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert doc["manifest_hash"] == manifest.hash
    assert doc["value"] == 2.0 and doc["arr"] == [0, 1, 2]
    assert manifest.outputs[0]["sha256"] == sha256_file(path)


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"pt-lab" * 1000)
    assert sha256_file(path) == hashlib.sha256(b"pt-lab" * 1000).hexdigest()


def test_resolve_out_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PT_LAB_OUT", str(tmp_path / "from_env"))
    assert resolve_out_dir(str(tmp_path / "flag")) == tmp_path / "flag"
    assert resolve_out_dir(None) == tmp_path / "from_env"
    monkeypatch.delenv("PT_LAB_OUT")
    assert resolve_out_dir(None).name == "pt_lab_out"
    assert (tmp_path / "flag").is_dir() and (tmp_path / "from_env").is_dir()


def test_manifest_hash_covers_args_not_outputs(tmp_path):
    a = RunManifest(subcommand="s", args={"n": 8, "seed": 0})
    b = RunManifest(subcommand="s", args={"n": 8, "seed": 0})
    c = RunManifest(subcommand="s", args={"n": 8, "seed": 1})
    assert a.hash == b.hash and a.hash != c.hash
    assert len(a.hash) == 16 and int(a.hash, 16) >= 0
    path = tmp_path / "x.csv"
    write_csv(path, {"a": [1]}, a)
    assert a.hash == b.hash  # recording outputs must not move the hash
    mpath = a.write(tmp_path)
    doc = json.loads(mpath.read_text())
    assert doc["manifest_hash"] == a.hash
    assert doc["outputs"][0]["path"].endswith("x.csv")


def test_downfolded_roundtrip_is_bit_exact(tmp_path):
    inst = gen_impurity_band(6, 3, 0.5, seed=5, B_perp=2.0)
    mat = build_downfolded(inst, TunnelingParams(n=6, B_perp=2.0), seed=3)
    paths = save_downfolded(mat, tmp_path / "df")
    assert {p.suffix for p in paths} == {".bin", ".json", ".csv"}
    back = load_downfolded(tmp_path / "df")
    assert np.array_equal(back.matrix, mat.matrix)
    assert back.V_typ == mat.V_typ and back.W == mat.W
    assert back.B_perp == mat.B_perp and back.n == 6
    assert back.shift == mat.shift


def test_downfolded_csv_sidecar_only_when_small(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(130, 130))
    mat = DownfoldedMatrix(matrix=(a + a.T) / 2.0, V_typ=1.0, W=1.0)
    paths = save_downfolded(mat, tmp_path / "big")
    assert {p.suffix for p in paths} == {".bin", ".json"}
    assert np.array_equal(load_downfolded(tmp_path / "big").matrix, mat.matrix)


# ---------------------------------------------------------------- CLI basics

def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    pytest.param('{"kind": "impurity_band", oops\n', ":1:", id="syntax"),
    pytest.param("[1, 2]\n", ": an instance must be a JSON object", id="list"),
    pytest.param('{"kind": "impurity_band", "n": 4, "eps": [0.1], "W": 1, '
                 '"B_perp": 1}\n', ": impurity_band instance lacks 'marked'",
                 id="no-marked"),
    pytest.param('{"kind": "foo"}\n', ": unknown instance kind 'foo'",
                 id="unknown-kind"),
])
def test_malformed_instance_reports_position(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc = main(["--out-dir", str(tmp_path), "sd", "--instance", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}{where}")


def test_evolve_requires_time(tmp_path, ib_instance, capsys):
    rc = main(["--out-dir", str(tmp_path), "evolve",
               "--instance", str(ib_instance)])
    assert rc == 2
    assert "--time" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, flag, value", [
    ("pipeline", "--dt", "0"),
    ("pt-run", "--dt", "nan"),
    ("evolve", "--dt", "-0.1"),
    ("pt-run", "--start-time", "inf"),
    ("pipeline", "--start-time", "-1"),
    ("pt-run", "--saturation-rtol", "-1"),
    ("pt-run", "--max-doublings", "-1"),
    ("evolve", "--time", "-1"),
    # step counts past the float range: time / dt overflows to inf
    ("evolve", "--dt", "1e-300"),
    ("pt-run", "--dt", "1e-320"),
])
def test_evolution_settings_out_of_range(tmp_path, ib_instance, capsys,
                                         cmd, flag, value):
    time = "1e300" if value == "1e-300" else "1"
    extra = ["--time", time] if cmd == "evolve" and flag != "--time" else []
    rc = main(["--out-dir", str(tmp_path), cmd, "--instance", str(ib_instance),
               *extra, flag, value])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    name = flag.lstrip("-").replace("-", "_")
    name = "total_time" if name == "time" else name
    assert len(err) == 1 and err[0].startswith("error:") and name in err[0]


@pytest.mark.parametrize("gen", [
    pytest.param(["--kind", "spin-glass", "--n", "16", "--seed", "3"],
                 id="glass"),
    pytest.param(["--kind", "impurity-band", "--n", "6", "--m", "3",
                  "--seed", "1"], id="band"),
])
def test_time_past_the_phase_limit(tmp_path, gen):
    # at t = 1e307 no digit of e^{-i lambda t} is right. Run unchecked, a
    # glass overflows its phase tables into NaN artifacts and a band runs
    # without end, so the run is a subprocess with a timeout
    assert main(["--out-dir", str(tmp_path / "inst"), "gen-instance", *gen]) == 0
    run = tmp_path / "run"
    out = subprocess.run(
        [sys.executable, "-m", "pt_lab.cli", "--out-dir", str(run), "evolve",
         "--instance", str(tmp_path / "inst" / "instance.json"),
         "--time", "1e307", "--steps", "1"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": _SRC})
    assert out.returncode == 2
    err = out.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "out of range" in err[0]
    assert not run.exists() or not any(run.iterdir())


@pytest.mark.parametrize("cmd, flag, value", [
    ("pblm-ensemble", "--realizations", "0"),
    ("evolve", "--top-k", "0"),
    ("pt-run", "--top-k", "0"),
    ("pipeline", "--top-k", "0"),
    ("pt-run", "--top-k", "-1"),
    ("spectrum", "--bins", "0"),
])
def test_count_flags_below_one(tmp_path, ib_instance, capsys, cmd, flag, value):
    if cmd == "pblm-ensemble":
        extra = ["--m", "8", "--gamma", "1.5"]
    else:
        extra = ["--instance", str(ib_instance)]
        extra += ["--time", "1"] if cmd == "evolve" else []
    rc = main(["--out-dir", str(tmp_path), cmd, *extra, flag, value])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and flag in err[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, word", [
    (["gen-instance", "--kind", "impurity-band", "--n", "0", "--m", "3"], "qubit count"),
    (["gen-instance", "--kind", "spin-glass", "--n", "40"], "qubit count"),
    (["gen-instance", "--kind", "impurity-band", "--n", "4", "--m", "0"], "M = 0"),
    (["gen-instance", "--kind", "impurity-band", "--n", "4", "--m", "20"], "M = 20"),
    (["gen-instance", "--kind", "spin-glass", "--n", "8", "--dimer-count", "9"],
     "dimer count"),
    (["gen-instance", "--kind", "impurity-band", "--n", "4", "--m", "3",
      "--w", "-1"], "W must be positive"),
    (["pblm-ensemble", "--m", "1", "--gamma", "1.5"], "M must be"),
    (["pblm-ensemble", "--m", "8", "--gamma", "-1"], "gamma must be"),
    (["pblm-ensemble", "--m", "8", "--gamma", "nan"], "gamma must be"),
    (["pblm-ensemble", "--m", "8", "--gamma", "1.5", "--lam", "nan"], "lambda must be"),
    (["pblm-ensemble", "--m", "8", "--gamma", "1.5", "--v-typ", "0"], "V_typ must be"),
    (["pblm-ensemble", "--m", "8", "--gamma", "1.5", "--eta", "-1"], "--eta"),
    (["pblm-ensemble", "--m", "8", "--gamma", "1.5", "--eta", "0"], "--eta"),
], ids=["n0", "n40", "m0", "m20", "dimers9", "w-1", "pblm-m1", "gamma-1",
        "gamma-nan", "lam-nan", "v-typ0", "eta-1", "eta0"])
def test_generator_arguments_out_of_range(tmp_path, capsys, argv, word):
    rc = main(["--out-dir", str(tmp_path), *argv])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("cmd, z0", [
    ("pt-run", "abc"),
    ("pipeline", "0x1ff"),
    ("evolve", "0x100"),
    ("sd", "-1"),
])
def test_bad_z0_is_usage_error(tmp_path, ib_instance, capsys, cmd, z0):
    extra = ["--time", "1"] if cmd == "evolve" else []
    rc = main(["--out-dir", str(tmp_path), cmd, "--instance", str(ib_instance),
               *extra, "--z0", z0])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --z0")


@pytest.mark.parametrize("argv, flag", [
    (["pt-run", "--steps", "7"], "--steps"),
    (["evolve", "--time", "2", "--steps", "5", "--dt", "0.01"], "--steps"),
    (["pt-run", "--time", "2", "--start-time", "3"], "--start-time"),
    (["pt-run", "--time", "2", "--saturation-rtol", "0.1"], "--saturation-rtol"),
    (["pipeline", "--time", "2", "--max-doublings", "0"], "--max-doublings"),
    (["gen-instance", "--kind", "spin-glass", "--n", "6", "--m", "3"], "--m"),
    (["gen-instance", "--kind", "impurity-band", "--n", "6", "--m", "3",
      "--dimer-count", "2"], "--dimer-count"),
], ids=["steps-ladder", "steps-dt", "start-time", "rtol", "doublings0",
        "glass-m", "band-dimers"])
def test_flags_a_run_would_ignore_are_usage_errors(tmp_path, ib_instance,
                                                   capsys, argv, flag):
    if argv[0] != "gen-instance":
        argv = [argv[0], "--instance", str(ib_instance), *argv[1:]]
    rc = main(["--out-dir", str(tmp_path), *argv])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and flag in err[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, word", [
    (["gen-instance", "--kind", "impurity-band", "--n", "6", "--m", "3",
      "--b-perp", "nan"], "B_perp"),
    (["gen-instance", "--kind", "spin-glass", "--n", "6", "--driver-scale",
      "nan"], "driver_scale"),
    (["pt-run", "--b-perp", "nan"], "--b-perp"),
    (["pt-run", "--b-perp", "-1"], "--b-perp"),
    (["pblm-ensemble", "--m", "8", "--gamma", "1.5", "--lam", "inf"], "lambda"),
    (["pblm-ensemble", "--m", "8", "--gamma", "1e6", "--realizations", "1"],
     "W = "),
    (["stats-fit", "--input", "pblm_sites.csv", "--m", "8", "--gamma", "1e6"],
     "W = "),
    (["grover-sweep", "--n", "10", "--m", "4", "--w", "0.5", "--eps0", "0"],
     "driver error"),
    (["grover-sweep", "--n", "10", "--m", "4", "--w", "0.5", "--eps0", "-3", "3"],
     "driver error"),
    (["grover-sweep", "--n", "10", "--m", "4", "--w", "0.5", "--eps0", "nan"],
     "eps0"),
    (["grover-sweep", "--n", "10", "--m", "2000", "--w", "0.5", "--eps0", "1"],
     "M < 2^n"),
    (["grover-sweep", "--n", "40", "--m", "4", "--w", "0.5", "--eps0", "1"],
     "qubit count"),
    (["grover-sweep", "--n", "10", "--m", "4", "--w", "-1", "--eps0", "1"],
     "--w"),
], ids=["gen-b-perp-nan", "driver-scale-nan", "pt-run-b-perp-nan",
        "pt-run-b-perp-1", "lam-inf", "pblm-w-overflow", "stats-fit-w-overflow",
        "eps0-0", "eps0-neg", "eps0-nan", "grover-m2000", "grover-n40", "grover-w-1"])
def test_nonfinite_or_out_of_range_flags_are_usage_errors(
        tmp_path, ib_instance, capsys, argv, word):
    if argv[0] in ("pt-run", "downfold"):
        argv = [argv[0], "--instance", str(ib_instance), *argv[1:]]
    rc = main(["--out-dir", str(tmp_path), *argv])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
    assert not any(tmp_path.iterdir())


_GLASS_DOC = instance_to_dict(gen_spin_glass(n=6, seed=3))
_BAND_DOC = instance_to_dict(gen_impurity_band(6, 3, 0.5, seed=7))


@pytest.mark.parametrize("doc, word", [
    pytest.param({**_GLASS_DOC, "J": [*_GLASS_DOC["J"], [0, 1, 99]]},
                 "J grid indices", id="J-grid-99"),
    pytest.param({**_GLASS_DOC, "J": [*_GLASS_DOC["J"], [0, 99, 3]]},
                 "J sites", id="J-site-99"),
    pytest.param({**_GLASS_DOC, "J": [*_GLASS_DOC["J"], [0, 1, "x"]]},
                 "J grid indices", id="J-grid-x"),
    pytest.param({**_GLASS_DOC, "h": [0.5] * 6}, "h grid indices",
                 id="h-half"),
    pytest.param({**_GLASS_DOC, "dimers": [[0, 99]]}, "dimer sites",
                 id="dimer-site-99"),
    pytest.param({**_GLASS_DOC, "driver_scale": float("nan")}, "driver_scale",
                 id="driver-scale-nan"),
    pytest.param({**_BAND_DOC, "B_perp": float("nan")}, "B_perp",
                 id="b-perp-nan"),
    pytest.param({**_BAND_DOC, "eps": [float("nan")] * 3}, "eps",
                 id="eps-nan"),
    pytest.param({**_BAND_DOC, "base_energy": float("inf")}, "base_energy",
                 id="base-energy-inf"),
    pytest.param({**_BAND_DOC, "n": "16"}, "n must be an integer", id="n-str"),
    pytest.param({**_BAND_DOC, "n": 8.5}, "n must be an integer", id="n-8.5"),
    pytest.param({**_BAND_DOC, "W": "x"}, "W", id="W-str"),
])
def test_malformed_instance_file_is_usage_error(tmp_path, capsys, doc, word):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["--out-dir", str(out), "pt-run", "--instance", str(bad),
               "--time", "1", "--steps", "5"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")
    assert word in err[0]
    assert not any(out.iterdir())


def test_numeric_downfold_past_the_dense_range(tmp_path):
    # n = 20 is past the dense reference (n <= 14); the written matrix
    # still carries the band eigenvalues of the marked-subspace solve
    inp, out = tmp_path / "in", tmp_path / "out"
    assert main(["--out-dir", str(inp), "gen-instance", "--kind", "impurity-band",
                 "--n", "20", "--m", "6", "--w", "0.5", "--seed", "1"]) == 0
    assert main(["--out-dir", str(out), "downfold", "--instance",
                 str(inp / "instance.json"),
                 "--phase-mode", "numeric_extraction"]) == 0
    inst = load_instance(inp / "instance.json")
    vals, amp = marked_eigensystem(inst)
    band = np.sort(vals[np.argsort((amp ** 2).sum(axis=0))[-6:]])
    got = np.linalg.eigvalsh(load_downfolded(out / "downfolded").matrix)
    np.testing.assert_allclose(got + inst.base_energy, band, rtol=0, atol=1e-10)


@pytest.mark.parametrize("mode", ["random_sign", "random_phase",
                                  "numeric_extraction"])
def test_one_spin_band_downfolds(tmp_path, mode):
    # n = 1 has no distance n // 2 >= 1: V_typ is read at d = 1
    inp, out = tmp_path / "in", tmp_path / "out"
    assert main(["--out-dir", str(inp), "gen-instance", "--kind", "impurity-band",
                 "--n", "1", "--m", "1"]) == 0
    assert main(["--out-dir", str(out), "downfold", "--instance",
                 str(inp / "instance.json"), "--phase-mode", mode]) == 0
    report = json.loads((out / "downfold_report.json").read_text())
    assert np.isfinite(report["V_typ"]) and report["V_typ"] > 0


@pytest.mark.parametrize("k", [1, 5, 17, 63, 64, 65, 1000])
def test_top_k_rows_match_full_sort(k):
    inst = gen_impurity_band(6, 3, 0.5, seed=2)
    # four distinct values, so ties cross every cut
    probs = np.random.default_rng(0).integers(0, 4, size=64) / 96.0
    E = all_classical_energies(inst)
    order = np.lexsort((np.arange(64), -probs))[:k]
    expect = {"z": order, "probability": probs[order], "classical_energy": E[order],
              "hamming_from_z0": [bin(int(z) ^ 5).count("1") for z in order]}
    got = _top_k_rows(inst, 5, probs, k)
    assert list(got) == list(expect)
    for name, col in expect.items():
        np.testing.assert_array_equal(got[name], col)


@pytest.mark.parametrize("k", [5, 17, 64])
def test_top_k_order_ignores_rounding_noise(k):
    # probabilities equal in exact arithmetic, apart by a few float64 ulps,
    # keep label order; the probability column is the noisy value itself
    inst = gen_impurity_band(6, 3, 0.5, seed=2)
    rng = np.random.default_rng(0)
    probs = rng.integers(0, 4, size=64) / 96.0
    noisy = probs * (1.0 + rng.uniform(-4e-16, 4e-16, size=64))
    assert np.any(noisy != probs)
    got = _top_k_rows(inst, 5, noisy, k)
    np.testing.assert_array_equal(got["z"], _top_k_rows(inst, 5, probs, k)["z"])
    np.testing.assert_array_equal(got["probability"], noisy[got["z"]])


# ---------------------------------------------------------------- subcommands

def test_gen_instance_impurity_band(tmp_path, ib_instance):
    inst = load_instance(ib_instance)
    assert inst.n == 8 and len(inst.marked) == 3 and inst.W == 0.5
    assert inst.B_perp == 2.0  # parser default
    doc = json.loads(ib_instance.read_text())
    assert doc["kind"] == "impurity_band"
    assert "manifest_hash" in doc


def test_gen_instance_zero_field_is_kept(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "gen-instance", "--kind",
               "impurity-band", "--n", "6", "--m", "2", "--b-perp", "0",
               "--seed", "3", "--out", "zero.json"])
    assert rc == 0
    assert load_instance(tmp_path / "zero.json").B_perp == 0.0


def test_gen_instance_impurity_band_requires_m(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path), "gen-instance", "--kind",
               "impurity-band", "--n", "6"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--m" in err[0]


def test_gen_instance_no_dimers(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "gen-instance", "--kind",
               "spin-glass", "--n", "8", "--dimer-count", "0", "--seed", "2"])
    assert rc == 0
    assert load_instance(tmp_path / "instance.json").dimers == ()


def test_spectrum_counts_all_states(tmp_path, ib_instance):
    rc = main(["--out-dir", str(tmp_path), "spectrum",
               "--instance", str(ib_instance), "--bins", "16"])
    assert rc == 0
    cols = read_csv_columns(tmp_path / "spectrum.csv")
    assert len(cols["count_states"]) == 16
    assert cols["count_states"].sum() == 2 ** 8
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert doc["e_min"] <= doc["mean"] <= doc["e_max"]


def test_pt_run_zero_field_override_is_identity(tmp_path, ib_instance):
    rc = main(["--out-dir", str(tmp_path), "pt-run",
               "--instance", str(ib_instance), "--b-perp", "0",
               "--time", "5", "--steps", "100"])
    assert rc == 0
    cols = read_csv_columns(tmp_path / "pt_output.csv")
    assert cols["probability"][0] == pytest.approx(1.0, abs=1e-10)
    assert cols["hamming_from_z0"][0] == 0
    result = json.loads((tmp_path / "pt_result.json").read_text())
    assert result["transferred_weight"] == pytest.approx(0.0, abs=1e-10)
    assert int(cols["z"][0]) == result["z0"]
    surv = read_csv_columns(tmp_path / "pt_survival.csv")
    assert np.allclose(surv["survival_probability"], 1.0, atol=1e-10)


def test_evolve_emits_state_table(tmp_path, ib_instance):
    rc = main(["--out-dir", str(tmp_path), "evolve",
               "--instance", str(ib_instance), "--time", "2", "--steps", "64",
               "--top-k", "10"])
    assert rc == 0
    cols = read_csv_columns(tmp_path / "evolve_state.csv")
    assert len(cols["z"]) == 10
    assert np.all(np.diff(cols["probability"]) <= 1e-15)
    doc = json.loads((tmp_path / "evolve.json").read_text())
    assert doc["steps"] == 64 and doc["norm"] == pytest.approx(1.0)
    assert 0.0 <= doc["survival"] <= 1.0


def test_band_evolve_survival_is_exact(tmp_path):
    # the impurity-band benchmark's evolve (n = 20, M = 64, --z0 auto,
    # t = 10): a band evolves exactly, so its survival is the marked-subspace
    # eigensystem's, whatever --steps says
    inp = tmp_path / "in"
    assert main(["--out-dir", str(inp), "gen-instance", "--kind",
                 "impurity-band", "--n", "20", "--m", "64", "--w", "0.5",
                 "--b-perp", "2", "--seed", "0"]) == 0
    assert main(["--out-dir", str(tmp_path / "run"), "evolve", "--instance",
                 str(inp / "instance.json"), "--time", "10", "--steps", "10",
                 "--top-k", "4"]) == 0
    doc = json.loads((tmp_path / "run" / "evolve.json").read_text())
    inst = load_instance(inp / "instance.json")
    z0 = inst.marked[int(np.argmin(inst.eps))]
    assert doc["z0"] == z0
    vals, amp = marked_eigensystem(inst)
    a = inst.marked.index(z0)
    want = abs(amp[a] @ (np.exp(-10j * vals) * amp[a])) ** 2
    assert doc["survival"] == pytest.approx(want, rel=0, abs=1e-10)
    assert 0.02 < want < 0.03


def test_downfold_cli_matches_library(tmp_path, ib_instance):
    rc = main(["--out-dir", str(tmp_path), "downfold",
               "--instance", str(ib_instance), "--seed", "4"])
    assert rc == 0
    inst = load_instance(ib_instance)
    expect = build_downfolded(inst, TunnelingParams(n=inst.n, B_perp=inst.B_perp),
                              seed=4)
    back = load_downfolded(tmp_path / "downfolded")
    assert np.array_equal(back.matrix, expect.matrix)
    report = json.loads((tmp_path / "downfold_report.json").read_text())
    assert report["M"] == 3 and report["phase_mode"] == "random_sign"
    cols = read_csv_columns(tmp_path / "downfolded.csv")
    assert len(cols["value_energy"]) == 9
    assert cols["value_energy"][0] == expect.matrix[0, 0]


def test_downfold_calibration_a_scales_the_amplitudes(tmp_path, ib_instance):
    # V(d) carries sqrt(A): A = 4 doubles every off-diagonal entry
    unit, four = tmp_path / "unit", tmp_path / "four"
    argv = ["downfold", "--instance", str(ib_instance), "--seed", "4"]
    assert main(["--out-dir", str(unit), *argv]) == 0
    assert main(["--out-dir", str(four), *argv, "--calibration-a", "4"]) == 0
    a, b = (load_downfolded(d / "downfolded").matrix for d in (unit, four))
    assert np.array_equal(np.diag(a), np.diag(b))
    off = ~np.eye(len(a), dtype=bool)
    np.testing.assert_allclose(b[off], 2.0 * a[off], rtol=1e-14, atol=0)


@pytest.mark.parametrize("b_perp, flags, word", [
    ("0", [], "B_perp must be positive"),
    ("2", ["--calibration-a", "0"], "calibration A"),
    ("2", ["--calibration-a", "-4"], "calibration A"),
    ("2", ["--calibration-a", "nan"], "calibration A"),
])
def test_downfold_bad_input_is_usage_error(tmp_path, capsys, b_perp, flags,
                                           word):
    inp, out = tmp_path / "in", tmp_path / "out"
    assert main(["--out-dir", str(inp), "gen-instance", "--kind", "impurity-band",
                 "--n", "6", "--m", "3", "--b-perp", b_perp]) == 0
    capsys.readouterr()
    rc = main(["--out-dir", str(out), "downfold", "--instance",
               str(inp / "instance.json"), *flags])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
    assert not out.exists() or not any(out.iterdir())


def test_pblm_ensemble_outputs(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "pblm-ensemble", "--m", "64",
               "--gamma", "1.5", "--realizations", "2", "--seed", "11"])
    assert rc == 0
    sites = read_csv_columns(tmp_path / "pblm_sites.csv")
    states = read_csv_columns(tmp_path / "pblm_states.csv")
    assert len(sites["site"]) == 2 * 64
    assert len(states["participation_ratio"]) == 2 * 64
    assert np.all(states["participation_ratio"] >= 1.0)
    fit = json.loads((tmp_path / "pblm_fit.json").read_text())
    assert fit["realizations"] == 2
    assert fit["config"]["W"] == pytest.approx(64 ** 0.75)
    assert "fitted_gamma_half" not in fit  # only with --fit-gammas
    assert fit["median_sigma2"] > 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seeds"] == [11, 11, 12]


def test_stats_fit_on_emitted_column(tmp_path):
    assert main(["--out-dir", str(tmp_path), "pblm-ensemble", "--m", "64",
                 "--gamma", "1.5", "--realizations", "2", "--seed", "11"]) == 0
    rc = main(["--out-dir", str(tmp_path), "stats-fit",
               "--input", str(tmp_path / "pblm_sites.csv"), "--positive-only",
               "--m", "64", "--gamma", "1.5"])
    assert rc == 0
    doc = json.loads((tmp_path / "stats_fit.json").read_text())
    assert doc["column"] == "sigma_doubleprime_energy"
    assert doc["fit"]["alpha"] == 1.0 and doc["fit"]["C"] > 0
    assert doc["predicted"]["sigma_star"] > 0
    assert doc["ratios"]["scale_over_predicted"] > 0
    rc = main(["--out-dir", str(tmp_path), "stats-fit",
               "--input", str(tmp_path / "pblm_sites.csv"),
               "--column", "no_such_column"])
    assert rc == 2


def test_stats_fit_skips_censored_decay_rates(tmp_path):
    # this ensemble censors some sites, whose gamma_rate cells are blank
    assert main(["--out-dir", str(tmp_path), "pblm-ensemble", "--m", "192",
                 "--gamma", "1.5", "--realizations", "2", "--seed", "0",
                 "--fit-gammas"]) == 0
    rates = read_csv_columns(tmp_path / "pblm_sites.csv")["gamma_rate"]
    blank = int(np.sum(rates == ""))
    assert blank > 0
    rc = main(["--out-dir", str(tmp_path), "stats-fit",
               "--input", str(tmp_path / "pblm_sites.csv"),
               "--column", "gamma_rate"])
    assert rc == 0
    doc = json.loads((tmp_path / "stats_fit.json").read_text())
    assert doc["count"] == len(rates) - blank


def test_stats_fit_rejects_text_column(tmp_path, capsys):
    path = tmp_path / "s.csv"
    write_csv(path, {"label": ["a", "", "b"]})
    rc = main(["--out-dir", str(tmp_path), "stats-fit", "--input", str(path),
               "--column", "label"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "label" in err[0]


@pytest.mark.parametrize("case", ["empty", "comment-only", "missing",
                                  "non-utf8"])
def test_stats_fit_rejects_unreadable_input(tmp_path, capsys, case):
    # as an unreadable --instance does: exit 2, one line, nothing written
    path = tmp_path / "s.csv"
    if case == "empty":
        path.write_text("")
    elif case == "comment-only":
        path.write_text("# pt-lab\n# no rows\n")
    elif case == "non-utf8":
        path.write_bytes(b"sigma_doubleprime_energy\n\xff\xfe\n")
    out = tmp_path / "out"
    rc = main(["--out-dir", str(out), "stats-fit", "--input", str(path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not any(out.iterdir())


def test_stats_fit_rejects_beta_outside_unit_interval(tmp_path, capsys):
    # and every predicted-law parameter that PBLMConfig rejects
    path = tmp_path / "s.csv"
    write_csv(path, {"sigma_doubleprime_energy": [float(x) for x in range(1, 21)]})
    for flags, word in [(["--beta", "1.5"], "--beta"),
                        (["--m", "1", "--gamma", "1.5"], "M must be"),
                        (["--m", "0", "--gamma", "1.5"], "M must be"),
                        (["--m", "64", "--gamma", "nan"], "gamma"),
                        (["--m", "64", "--gamma", "1.5", "--lam", "0"], "lambda"),
                        (["--m", "64", "--gamma", "1.5", "--v-typ", "0"], "V_typ")]:
        rc = main(["--out-dir", str(tmp_path), "stats-fit", "--input",
                   str(path), *flags])
        assert rc == 2, flags
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
        assert not (tmp_path / "stats_fit.json").exists()


def test_stats_fit_needs_both_law_flags(tmp_path, capsys):
    # one of --m and --gamma alone would drop the predicted law silently
    ens = tmp_path / "ens"
    assert main(["--out-dir", str(ens), "pblm-ensemble", "--m", "64",
                 "--gamma", "1.5", "--realizations", "2"]) == 0
    capsys.readouterr()
    for flags, missing in [(["--m", "64"], "--gamma"),
                           (["--gamma", "1.5"], "--m")]:
        rc = main(["--out-dir", str(tmp_path), "stats-fit", "--input",
                   str(ens / "pblm_sites.csv"), *flags])
        assert rc == 2, flags
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"{missing} is missing" in err[0]
        assert not (tmp_path / "stats_fit.json").exists()


def test_grover_sweep_rows(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "grover-sweep", "--n", "8",
               "--m", "8", "--w", "0.5", "--eps0", "6.0", "3.0"])
    assert rc == 0
    cols = read_csv_columns(tmp_path / "grover_sweep.csv")
    assert np.array_equal(cols["eps0_energy"], [6.0, 3.0])
    assert np.all(cols["t_pt_predicted"] > 0)
    assert np.all(cols["p0_peak"] <= 1.0)
    # the driver error sets the effective field, B = 1 - eps0/n
    from pt_lab.grover import grover_time
    expect = [grover_time(8, 8, 1.0 - e / 8.0) for e in (6.0, 3.0)]
    assert cols["t_grover"] == pytest.approx(expect)


def test_sd_reaches_local_minimum(tmp_path, glass_instance):
    rc = main(["--out-dir", str(tmp_path), "sd",
               "--instance", str(glass_instance), "--z0", "0"])
    assert rc == 0
    doc = json.loads((tmp_path / "sd.json").read_text())
    inst = load_instance(glass_instance)
    rec = steepest_descent(inst, 0)
    assert doc["z_min"] == rec.z
    assert doc["energy"] == pytest.approx(rec.energy)


def test_minima_table(tmp_path, glass_instance):
    rc = main(["--out-dir", str(tmp_path), "minima",
               "--instance", str(glass_instance)])
    assert rc == 0
    cols = read_csv_columns(tmp_path / "minima.csv")
    records = enumerate_local_minima(load_instance(glass_instance))
    assert len(cols["z"]) == len(records)
    assert cols["basin_probability_uniform"].sum() == pytest.approx(1.0)
    assert np.all(np.diff(cols["energy"]) >= 0)
    # digit-only bitstrings come back as numbers; compare as decimal ints
    for z, b in zip(cols["z"], cols["bitstring"]):
        assert int(b) == int(format(int(z), "b"))


def test_pipeline_summary_and_figures(tmp_path, glass_instance):
    rc = main(["--out-dir", str(tmp_path), "pipeline",
               "--instance", str(glass_instance), "--dt", "0.1",
               "--start-time", "2", "--max-doublings", "2",
               "--saturation-rtol", "0.5"])
    assert rc == 0
    summary = json.loads((tmp_path / "pipeline_summary.json").read_text())
    assert 0.0 <= summary["window_weight_pt"] <= 1.0
    assert summary["window_ratio"] > 0
    assert summary["minima_count"] >= 1
    assert 0 <= summary["enriched_minima"] <= summary["minima_count"]
    panels = read_csv_columns(tmp_path / "fig_energy_panels.csv")
    assert panels["dos_weight"].sum() == pytest.approx(1.0)
    assert panels["sd_weight"].sum() == pytest.approx(1.0)
    hamming = read_csv_columns(tmp_path / "fig_hamming_from_start.csv")
    assert hamming["pt_full_weight"].sum() == pytest.approx(1.0, abs=1e-9)
    assert len(hamming["hamming_distance"]) == 11
    pairs = read_csv_columns(tmp_path / "fig_pair_hamming.csv")
    assert np.all(pairs["joint_probability_weight"] >= 0)
    enrich = read_csv_columns(tmp_path / "fig_enrichment.csv")
    assert enrich["basin_mass_uniform"].sum() == pytest.approx(1.0)
    # manifest must record every emitted file with its current hash
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    names = {entry["path"].rsplit("/", 1)[-1] for entry in manifest["outputs"]}
    assert {"pipeline_summary.json", "fig_energy_panels.csv",
            "fig_enrichment.csv", "pt_output.csv"} <= names
    for entry in manifest["outputs"]:
        assert sha256_file(entry["path"]) == entry["sha256"]


def test_pipeline_shares_one_landscape(tmp_path, glass_instance, monkeypatch):
    import pt_lab.instances as instances
    import pt_lab.optimize as optimize

    calls = {"pair_energies": 0, "_basin_roots": 0, "_descent_pointers": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    # one enumeration of all 2^n energies is one pair_energies call
    counted(instances, "pair_energies")
    counted(optimize, "_basin_roots")
    # one descent pass serves the automatic start and the enrichment
    counted(optimize, "_descent_pointers")
    rc = main(["--out-dir", str(tmp_path), "pipeline",
               "--instance", str(glass_instance), "--dt", "0.1",
               "--start-time", "1", "--max-doublings", "1"])
    assert rc == 0
    assert calls == {"pair_energies": 1, "_basin_roots": 1,
                     "_descent_pointers": 1}

    inst = load_instance(glass_instance)
    E = instances.all_classical_energies(inst)
    assert instances.all_classical_energies(inst) is E
    with pytest.raises(ValueError):
        E[0] = 0.0
    # the basin map is kept on the instance the same way
    minima, energies, _ = optimize.basin_distribution(inst)
    basins = vars(inst)["_basins"]
    assert optimize.local_minima(inst)[0] is minima is basins[0]
    assert vars(inst)["_basins"] is basins
    assert basins[2].dtype == np.min_scalar_type(len(minima))
    for a in basins:
        with pytest.raises(ValueError):
            a[0] = 0


# ---------------------------------------------------------------- determinism

def test_same_args_same_bytes_across_dirs(tmp_path, ib_instance):
    argv = ["pt-run", "--instance", str(ib_instance), "--time", "3",
            "--steps", "50"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out-dir", str(a)] + argv) == 0
    assert main(["--out-dir", str(b)] + argv) == 0
    for name in ("pt_output.csv", "pt_survival.csv", "pt_result.json"):
        assert sha256_file(a / name) == sha256_file(b / name)


_SRC = str(Path(pt_lab.__file__).resolve().parents[1])


def _cli_subprocess(argv, blas_threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = _SRC
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    subprocess.run([sys.executable, "-m", "pt_lab.cli", *argv], env=env,
                   check=True, capture_output=True)


@pytest.mark.parametrize("cmd", ["pblm-ensemble", "pipeline"])
def test_unset_blas_threads_write_the_one_thread_bytes(tmp_path, cmd):
    """A CLI process runs on one OpenBLAS thread unless OPENBLAS_NUM_THREADS
    is set, so leaving it unset writes the same bytes as setting it to 1.
    With two or more cores a second thread sums the ensemble's products and
    eigh calls, and the glass pipeline's survival trace, in another order,
    which moves their last bits. On a one-core machine OpenBLAS starts one
    thread either way and this passes trivially."""
    if cmd == "pblm-ensemble":
        argv = ["pblm-ensemble", "--m", "512", "--gamma", "1.5",
                "--realizations", "1", "--fit-gammas"]
    else:  # the glass-pipeline benchmark's settings
        assert main(["--out-dir", str(tmp_path), "gen-instance", "--kind",
                     "spin-glass", "--n", "16", "--seed", "3"]) == 0
        argv = ["pipeline", "--instance", str(tmp_path / "instance.json"),
                "--dt", "0.1", "--start-time", "10", "--max-doublings", "1",
                "--saturation-rtol", "0.01"]
    unset, one = tmp_path / "unset", tmp_path / "one"
    _cli_subprocess(["--out-dir", str(unset), *argv], None)
    _cli_subprocess(["--out-dir", str(one), *argv], "1")
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in unset.iterdir())
    want = ({"pblm_sites.csv", "pblm_states.csv", "pblm_fit.json"}
            if cmd == "pblm-ensemble" else {"pt_survival.csv", "pt_output.csv"})
    assert want <= set(names)
    for name in names:
        if name != "manifest.json":  # it records the run directory
            assert (unset / name).read_bytes() == (one / name).read_bytes(), name


def test_import_loads_no_numpy():
    probe = "import pt_lab, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env={**os.environ, "PYTHONPATH": _SRC})


_EXECUTED = ("import sys, types; from pt_lab.cli import main; "
             "rc = main(sys.argv[1:]) if sys.argv[1:] else 0; "
             "print(rc, 'numpy' in sys.modules, 'scipy' in sys.modules, "
             "*sorted(m for m, mod in sys.modules.items() "
             "if m.startswith('pt_lab.') and type(mod) is types.ModuleType))")


@pytest.mark.parametrize("cmd, executed", [
    ("import", []),
    ("gen-instance", ["bits", "instances", "io_utils"]),
    ("downfold", ["bits", "downfold", "instances", "io_utils"]),
    ("pblm-ensemble", ["bits", "downfold", "io_utils", "pblm", "spectral"]),
    ("grover-sweep", ["bits", "grover", "io_utils", "spectral"]),
    ("evolve", ["bits", "instances", "io_utils", "statevector"]),
    ("pt-run", ["bits", "instances", "io_utils", "statevector"]),
])
def test_cli_runs_only_the_modules_its_subcommand_reaches(tmp_path, ib_instance,
                                                          cmd, executed):
    # importing pt_lab.cli registers the package modules without running
    # them (a module LazyLoader has not run is not of type ModuleType), so
    # a process runs only the modules its subcommand reaches; numpy is
    # eager. A band's evolution imports no scipy: its Chebyshev
    # coefficients come from numpy's FFT
    argv = {"import": [],
            "gen-instance": ["gen-instance", "--kind", "spin-glass", "--n", "8"],
            "downfold": ["downfold", "--instance", str(ib_instance),
                         "--phase-mode", "numeric_extraction"],
            "pblm-ensemble": ["pblm-ensemble", "--m", "16", "--gamma", "1.5",
                              "--realizations", "1", "--fit-gammas"],
            "grover-sweep": ["grover-sweep", "--n", "8", "--m", "3", "--w",
                             "0.5", "--eps0", "4"],
            "evolve": ["evolve", "--instance", str(ib_instance), "--time", "1",
                       "--steps", "2"],
            "pt-run": ["pt-run", "--instance", str(ib_instance), "--dt", "0.1",
                       "--max-doublings", "2"]}[cmd]
    if argv:
        argv = ["--out-dir", str(tmp_path), *argv]
    out = subprocess.run([sys.executable, "-c", _EXECUTED, *argv], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": _SRC})
    rc, numpy, scipy, *modules = out.stdout.splitlines()[-1].split()
    assert [rc, numpy] == ["0", "True"]
    assert modules == sorted(f"pt_lab.{m}" for m in ["cli", *executed])
    if cmd in ("evolve", "pt-run"):
        assert scipy == "False"


def test_package_modules_leave_hashlib_unloaded():
    # hashlib maps OpenSSL's libcrypto; no module loads it at import, so a
    # run maps it at its first output hash, after its state arrays are freed
    probe = ("import importlib, pkgutil, sys, pt_lab; "
             "names = [m.name for m in pkgutil.iter_modules(pt_lab.__path__)]; "
             "[importlib.import_module('pt_lab.' + m) for m in names]; "
             "print('hashlib' in sys.modules, *names)")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": _SRC})
    loaded, *names = out.stdout.split()
    assert loaded == "False" and {"cli", "io_utils", "spectral"} <= set(names)


def test_every_traced_function_exists():
    # the benchmark tracer records a name it cannot find as missing, and
    # that name's per-layer metric then reads 0. This runs the tracer's own
    # lookup after the import its runs make (pt_lab.cli), in a child
    # process, since installing rebinds the package's functions
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    probe = ("import pt_lab.cli, tracecli; t = tracecli.Tracer(); "
             "t.install(); print(*t.missing)")
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env={**os.environ,
                        "PYTHONPATH": os.pathsep.join([_SRC, str(perfbench)])})
    assert out.stdout.split() == []


@pytest.mark.parametrize("cmd", ["pt-run", "pipeline"])
def test_ladder_progress_on_stderr_only(tmp_path, ib_instance, capsys,
                                        monkeypatch, cmd):
    import pt_lab.statevector as statevector

    argv = [cmd, "--instance", str(ib_instance), "--dt", "0.1",
            "--start-time", "1", "--max-doublings", "2",
            "--saturation-rtol", "0"]
    shown, quiet = tmp_path / "shown", tmp_path / "quiet"
    assert main(["--out-dir", str(shown)] + argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert len([ln for ln in err if ln.startswith("rung:")]) == 3
    # the same run without the callback writes the same bytes
    plain = statevector.run_pt_protocol
    monkeypatch.setattr(statevector, "run_pt_protocol",
                        lambda inst, z0, config, on_rung=None:
                        plain(inst, z0, config))
    assert main(["--out-dir", str(quiet)] + argv) == 0
    assert "rung:" not in capsys.readouterr().err
    names = sorted(p.name for p in shown.iterdir())
    assert names == sorted(p.name for p in quiet.iterdir())
    for name in names:
        if name != "manifest.json":  # it records the run directory
            assert (shown / name).read_bytes() == (quiet / name).read_bytes()


def test_pipeline_applies_the_b_perp_override(tmp_path, ib_instance):
    ladder = ["--instance", str(ib_instance), "--dt", "0.1", "--start-time", "1",
              "--max-doublings", "2", "--b-perp", "3"]
    base, run = tmp_path / "base", tmp_path / "run"
    assert main(["--out-dir", str(base), "pt-run", *ladder]) == 0
    assert main(["--out-dir", str(run), "pipeline", *ladder]) == 0
    names = sorted(p.name for p in base.glob("pt_*.csv"))
    assert len(names) == 4
    for name in names:
        # the first line stamps the manifest hash, which records the subcommand
        assert ((run / name).read_text().splitlines()[1:]
                == (base / name).read_text().splitlines()[1:]), name


def test_pipeline_b_perp_on_a_glass_is_usage_error(tmp_path, glass_instance,
                                                     capsys):
    rc = main(["--out-dir", str(tmp_path), "pipeline", "--instance",
               str(glass_instance), "--b-perp", "3"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--b-perp" in err[0]
    assert not any(tmp_path.iterdir())


def test_replay_verifies_hashes(tmp_path, ib_instance, capsys, monkeypatch):
    run = tmp_path / "run"
    assert main(["--out-dir", str(run), "pt-run", "--instance",
                 str(ib_instance), "--time", "3", "--steps", "50"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    rc = main(["--out-dir", str(tmp_path / "redo"), "--replay",
               str(run / "manifest.json")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "match: pt_output.csv" in captured.out
    assert "MISMATCH" not in captured.out
    # the thread setting is reported on stderr and written to no file
    assert captured.err.splitlines() == ["replay: OPENBLAS_NUM_THREADS=3"]
    for path in (tmp_path / "redo").iterdir():
        assert b"OPENBLAS" not in path.read_bytes()


def test_replay_detects_tamper(tmp_path, ib_instance, capsys):
    run = tmp_path / "run"
    assert main(["--out-dir", str(run), "pt-run", "--instance",
                 str(ib_instance), "--time", "3", "--steps", "50"]) == 0
    doc = json.loads((run / "manifest.json").read_text())
    doc["outputs"][0]["sha256"] = "0" * 64
    (run / "manifest.json").write_text(json.dumps(doc))
    rc = main(["--out-dir", str(tmp_path / "redo"), "--replay",
               str(run / "manifest.json")])
    assert rc == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.fixture(scope="module")
def replay_argv(tmp_path_factory, ib_instance):
    """A small run of each subcommand: n <= 8, M <= 64, one realization."""
    d = tmp_path_factory.mktemp("replay_inputs")
    assert main(["--out-dir", str(d), "gen-instance", "--kind", "spin-glass",
                 "--n", "8", "--seed", "1", "--out", "glass.json"]) == 0
    samples = d / "samples.csv"
    write_csv(samples, {"sigma_doubleprime_energy":
                        np.random.default_rng(0).pareto(1.0, 200)})
    ib, glass = str(ib_instance), str(d / "glass.json")
    return {
        "gen-instance": ["--kind", "impurity-band", "--n", "6", "--m", "3"],
        "spectrum": ["--instance", ib, "--bins", "16"],
        "evolve": ["--instance", ib, "--time", "2", "--steps", "20"],
        "pt-run": ["--instance", ib, "--dt", "0.1", "--max-doublings", "2"],
        "downfold": ["--instance", ib, "--calibration-a", "2"],
        "pblm-ensemble": ["--m", "32", "--gamma", "1.5", "--realizations",
                          "1", "--fit-gammas"],
        "grover-sweep": ["--n", "6", "--m", "4", "--w", "0.5", "--eps0", "2"],
        "sd": ["--instance", glass],
        "minima": ["--instance", glass],
        "pipeline": ["--instance", glass, "--dt", "0.1", "--max-doublings", "1"],
        "stats-fit": ["--input", str(samples), "--m", "64", "--gamma", "1.5"],
    }


@pytest.mark.parametrize("cmd", ["gen-instance", "spectrum", "evolve", "pt-run",
                                 "downfold", "pblm-ensemble", "grover-sweep",
                                 "sd", "minima", "pipeline", "stats-fit"])
def test_replay_round_trip(tmp_path, replay_argv, capsys, cmd):
    run, redo = tmp_path / "run", tmp_path / "redo"
    assert main(["--out-dir", str(run), cmd, *replay_argv[cmd]]) == 0
    names = [Path(o["path"]).name for o in
             json.loads((run / "manifest.json").read_text())["outputs"]]
    assert names
    capsys.readouterr()
    rc = main(["--out-dir", str(redo), "--replay", str(run / "manifest.json")])
    assert rc == 0
    verdicts = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith(("match:", "MISMATCH:"))]
    assert verdicts == [f"match: {name}" for name in names]


def test_replay_fills_flags_the_manifest_lacks(tmp_path, capsys):
    # a manifest without b_perp runs at the parser default, 2.0, and the new
    # manifest records the args as the old one did
    run, redo = tmp_path / "run", tmp_path / "redo"
    assert main(["--out-dir", str(run), "gen-instance", "--kind",
                 "impurity-band", "--n", "6", "--m", "3", "--seed", "5"]) == 0
    doc = json.loads((run / "manifest.json").read_text())
    del doc["args"]["b_perp"]
    doc["outputs"] = []
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    assert main(["--out-dir", str(redo), "--replay", str(old)]) == 0
    assert load_instance(redo / "instance.json").B_perp == 2.0
    a, b = (json.loads((d / "instance.json").read_text()) for d in (run, redo))
    del a["manifest_hash"], b["manifest_hash"]
    assert a == b
    assert json.loads((redo / "manifest.json").read_text())["args"] == doc["args"]


def test_replay_of_an_evolve_manifest_with_ladder_keys(tmp_path, ib_instance,
                                                      capsys):
    # evolve manifests recorded while evolve still took the ladder flags
    # carry them as null, and their outputs' stamps hash those args. Such
    # a run is made here by handing _run the args a parse then recorded
    new, run, redo = (tmp_path / d for d in ("new", "run", "redo"))
    assert main(["--out-dir", str(new), "evolve", "--instance",
                 str(ib_instance), "--time", "2", "--steps", "20"]) == 0
    args = json.loads((new / "manifest.json").read_text())["args"]
    assert "start_time" not in args
    args.update(start_time=None, saturation_rtol=None, max_doublings=None)
    run.mkdir()
    _run("evolve", args, run)
    capsys.readouterr()
    assert main(["--out-dir", str(redo), "--replay",
                 str(run / "manifest.json")]) == 0
    assert [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith(("match:", "MISMATCH:"))] == [
        "match: evolve_state.csv", "match: evolve.json"]
    assert json.loads((redo / "manifest.json").read_text())["args"] == args


@pytest.mark.parametrize("flag, value", [("--start-time", "1"),
                                         ("--saturation-rtol", "0.1"),
                                         ("--max-doublings", "2")])
def test_evolve_takes_no_ladder_flags(tmp_path, ib_instance, flag, value):
    # evolve requires --time, which replaces the ladder
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "evolve", "--instance",
              str(ib_instance), "--time", "2", flag, value])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_replay_without_a_required_flag_is_usage_error(tmp_path, ib_instance,
                                                       capsys):
    run = tmp_path / "run"
    assert main(["--out-dir", str(run), "pt-run", "--instance",
                 str(ib_instance), "--time", "3", "--steps", "50"]) == 0
    doc = json.loads((run / "manifest.json").read_text())
    del doc["args"]["instance"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path / "redo"), "--replay", str(old)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "pt-lab pt-run: error: the following arguments are required: --instance")
    assert not (tmp_path / "redo").exists()


@pytest.mark.parametrize("name, value, message", [
    ("kind", "nope", "argument --kind: invalid choice: 'nope'"),
    ("n", None, "the following arguments are required: --n"),
    ("seed", "x", "argument --seed: invalid int value: 'x'"),
    ("n", 2.5, "argument --n: invalid int value: '2.5'"),
])
def test_replay_parses_the_recorded_args(tmp_path, capsys, name, value,
                                         message):
    # the recorded args pass the parser's checks, as a command line does
    run = tmp_path / "run"
    assert main(["--out-dir", str(run), "gen-instance", "--kind",
                 "spin-glass", "--n", "6"]) == 0
    doc = json.loads((run / "manifest.json").read_text())
    doc["args"][name] = value
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path / "redo"), "--replay", str(old)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("pt-lab gen-instance: error: " + message), err
    assert not (tmp_path / "redo").exists()


def test_replay_rejects_a_recorded_null(tmp_path, capsys):
    # a None is left off the rebuilt command line, so the parse reads the
    # flag's default; the run would read the None, so it is a usage error
    run = tmp_path / "run"
    assert main(["--out-dir", str(run), "gen-instance", "--kind",
                 "impurity-band", "--n", "8", "--m", "3", "--w", "0.5"]) == 0
    doc = json.loads((run / "manifest.json").read_text())
    doc["args"]["w"] = None
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["--out-dir", str(redo), "--replay", str(old)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {old}: args record null where a value is needed: --w"]
    assert not redo.exists()


def test_replay_malformed_manifest(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text("{broken")
    assert main(["--out-dir", str(tmp_path), "--replay", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    bad.write_text('{"subcommand": "no-such-command", "args": {}}')
    assert main(["--out-dir", str(tmp_path), "--replay", str(bad)]) == 2
    assert "not a run manifest" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["spectrum", "--instance"],
                                  ["stats-fit", "--input"], ["--replay"]])
def test_directory_input_is_usage_error(tmp_path, capsys, argv):
    # as a missing file is: exit 2, one line, nothing written
    out = tmp_path / "out"
    rc = main(["--out-dir", str(out), *argv, str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists() or not any(out.iterdir())


def test_replay_missing_input_is_usage_error(tmp_path, ib_instance, capsys):
    inst = tmp_path / "instance.json"
    inst.write_bytes(ib_instance.read_bytes())
    run = tmp_path / "run"
    assert main(["--out-dir", str(run), "pt-run", "--instance", str(inst),
                 "--time", "3", "--steps", "50"]) == 0
    inst.unlink()
    capsys.readouterr()
    rc = main(["--out-dir", str(tmp_path / "redo"), "--replay",
               str(run / "manifest.json")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
