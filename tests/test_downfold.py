import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from pt_lab.instances import gen_impurity_band, ImpurityBandInstance
from pt_lab.downfold import (THETA_MIN_B_PERP, DownfoldedMatrix,
                             amplitude_table, build_downfolded,
                             calibrate_prefactor, cdf_w,
                             extract_numeric_elements, marked_eigensystem,
                             pdf_w, sample_w, theta, v_typ)
from pt_lab.statevector import exact_eigs

mp.mp.dps = 30


def _theta_mp(B):
    B = mp.mpf(B)
    return 1 / (4 * B**2) + 1 / (24 * B**4) + 1 / (60 * B**6)


def _amp_mp(n, d, B, A=1.0):
    val = mp.sqrt(A) * mp.mpf(n) ** mp.mpf("1.25") * mp.e ** (-n * _theta_mp(B))
    return float(val / mp.sqrt(mp.binomial(n, d)))


def test_theta_value():
    assert theta(2.0) == pytest.approx(0.065364583333333333, rel=1e-12)
    assert theta(1.5) == pytest.approx(float(_theta_mp(1.5)), rel=1e-12)


def test_theta_range_is_data_and_theta_does_not_warn():
    # the series applies for B_perp > 1; out of that range theta returns the
    # truncated sum, bit for bit as it did while it warned, and warns nothing
    assert THETA_MIN_B_PERP == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert theta(0.7) == 0.8254072141143007
        assert theta(1.0) == 0.30833333333333335
        assert theta(1.01) == pytest.approx(float(_theta_mp(1.01)), rel=1e-12)


def test_v_typ_leading_term():
    assert v_typ(20, 2.0) == pytest.approx(0.11191593627351176, rel=1e-12)
    # only the 1/(4B^2) exponent enters, not the full theta series
    n, B = 30, 1.7
    want = n**2 * 2.0 ** (-n / 2) * np.exp(-n / (4 * B**2))
    assert v_typ(n, B) == pytest.approx(want, rel=1e-12)


def test_amplitude_table_matches_high_precision():
    for n, d, B in [(10, 3, 2.0), (10, 5, 2.0), (16, 8, 1.4), (24, 1, 3.0)]:
        assert amplitude_table(n, B)[d] == pytest.approx(
            _amp_mp(n, d, B), rel=1e-10)


def test_amplitude_table_consistent():
    tab = amplitude_table(12, 1.8)
    assert tab.shape == (13,)
    assert tab[0] == 0.0
    # each entry is the closed form at its distance, and V_typ the entry at
    # n // 2
    for d in range(1, 13):
        want = 12**1.25 * math.exp(-12 * theta(1.8)) / math.sqrt(math.comb(12, d))
        assert tab[d] == pytest.approx(want, rel=1e-12)
    inst = ImpurityBandInstance(n=12, marked=(0, 1), eps=(0.0, 0.0), W=0.1,
                                B_perp=1.8)
    assert build_downfolded(inst).V_typ == pytest.approx(tab[6], rel=1e-12)


def test_amplitude_decreases_to_the_equator():
    # binomial growth suppresses the amplitude up to d = n/2
    tab = amplitude_table(20, 2.0)
    assert np.all(np.diff(tab[1:11]) < 0)
    assert tab[10] == pytest.approx(tab[20 - 10] * 1.0)


def test_downfold_does_not_import_statevector():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pt_lab

    src = str(Path(pt_lab.__file__).resolve().parents[1])
    probe = ("import sys, pt_lab.downfold; "
             "print('pt_lab.statevector' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    assert done.stdout.splitlines()[-1] == "False", done.stderr


def test_build_downfolded_random_sign():
    inst = gen_impurity_band(n=14, M=20, W=0.4, seed=5, B_perp=2.0)
    mat = build_downfolded(inst, seed=1)
    H = mat.matrix
    assert H.shape == (20, 20)
    np.testing.assert_allclose(H, H.T, atol=0)
    np.testing.assert_allclose(np.diag(H), np.asarray(inst.eps) - 2.0**2)
    tab = amplitude_table(14, 2.0)
    marked = np.asarray(inst.marked, dtype=np.uint64)
    for a in range(20):
        for b in range(a + 1, 20):
            d = bin(int(marked[a]) ^ int(marked[b])).count("1")
            assert abs(H[a, b]) == pytest.approx(tab[d], rel=1e-12)
    assert mat.V_typ == pytest.approx(tab[7])
    assert mat.W == inst.W
    # deterministic in the seed
    again = build_downfolded(inst, seed=1)
    np.testing.assert_allclose(again.matrix, H, atol=0)


def test_build_downfolded_random_phase_mode():
    inst = gen_impurity_band(n=12, M=40, W=0.4, seed=9, B_perp=2.0)
    mat = build_downfolded(inst, "random_phase", seed=3)
    tab = amplitude_table(12, 2.0)
    marked = np.asarray(inst.marked, dtype=np.uint64)
    iu = np.triu_indices(40, k=1)
    d = np.bitwise_count(marked[iu[0]] ^ marked[iu[1]]).astype(int)
    x = mat.matrix[iu] / tab[d]
    # entries are sqrt(2) sin(u) with u uniform: bounded and with unit
    # second moment
    assert np.max(np.abs(x)) <= np.sqrt(2.0) + 1e-12
    assert np.mean(x**2) == pytest.approx(1.0, abs=0.1)


def test_downfolded_matrix_validation():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        DownfoldedMatrix(matrix=bad, V_typ=1.0, W=1.0)
    nan = np.array([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(ValueError):
        DownfoldedMatrix(matrix=nan, V_typ=1.0, W=1.0)
    ok = DownfoldedMatrix(matrix=np.eye(3), V_typ=1.0, W=1.0)
    assert ok.M == 3


def test_pdf_w_values_and_domain():
    assert pdf_w(np.e) == pytest.approx(0.076354757088582157, rel=1e-12)
    with pytest.raises(ValueError):
        pdf_w(1.0)
    with pytest.raises(ValueError):
        pdf_w(0.5)


def test_pdf_w_normalizes_and_matches_cdf():
    total, err = quad(pdf_w, 1.0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-8)
    for w in (1.5, 3.0, 10.0, 100.0):
        part, _ = quad(pdf_w, 1.0, w)
        assert cdf_w(w) == pytest.approx(part, abs=1e-9)
    assert cdf_w(1.0) == 0.0


def test_sample_w_matches_law():
    # at finite n the support is discrete (ratios of binomials), so the
    # distance to the continuous law saturates; n = 500 is comfortably
    # inside the tolerance
    w = sample_w(n=500, count=20000, seed=0)
    assert np.all(w >= 1.0)
    assert np.all(np.isfinite(w))
    grid = np.quantile(w, np.linspace(0.02, 0.98, 49))
    ks = np.max(np.abs(cdf_w(grid) - np.linspace(0.02, 0.98, 49)))
    assert ks < 0.05
    assert np.array_equal(w, sample_w(n=500, count=20000, seed=0))


def test_numeric_extraction_single_flip_is_exact():
    # a marked pair one flip apart couples directly through the driver,
    # and the bit-flip symmetry makes the splitting exactly 2 B_perp
    inst = ImpurityBandInstance(n=10, marked=(0, 1), eps=(0.0, 0.0),
                                W=0.1, B_perp=1.5)
    assert extract_numeric_elements(inst) == pytest.approx(1.5, abs=1e-9)


def test_numeric_extraction_refuses_an_ill_conditioned_pair():
    # the two eigenstates of largest marked weight are both antisymmetric,
    # with parallel marked components (0.39, -0.39) and (-0.43, 0.43); half
    # their splitting, 2.4743, is no tunneling amplitude. The band
    # projection refuses the pair, and so must the extraction
    inst = ImpurityBandInstance(n=6, marked=(0, 0b111), eps=(0.0, 0.0),
                                W=0.1, B_perp=3.0)
    with pytest.raises(ValueError, match="ill-conditioned"):
        extract_numeric_elements(inst)


def test_numeric_extraction_decays_with_distance():
    # beyond d ~ n/2 the reading is swamped by hybridization with the
    # bulk, so only the resolvable range is checked
    vals = []
    for mask in (0b1, 0b111, 0b11111):
        inst = ImpurityBandInstance(n=10, marked=(0, mask), eps=(0.0, 0.0),
                                    W=0.1, B_perp=1.5)
        vals.append(extract_numeric_elements(inst))
    assert vals[0] > vals[1] > vals[2] > 0


def test_numeric_extraction_order_of_magnitude():
    # the asymptotic amplitude formula drifts by O(1) factors at these
    # sizes; a wrong exponent or binomial would miss by far more
    inst = ImpurityBandInstance(n=10, marked=(0, 0b11111), eps=(0.0, 0.0),
                                W=0.1, B_perp=1.5)
    v_num = extract_numeric_elements(inst)
    v_form = amplitude_table(10, 1.5)[5]
    assert 0.1 < v_num / v_form < 10.0


def test_numeric_mode_matches_extraction():
    inst = ImpurityBandInstance(n=10, marked=(0, 0b11111), eps=(0.0, 0.0),
                                W=0.1, B_perp=1.5)
    mat = build_downfolded(inst, "numeric_extraction")
    assert abs(mat.matrix[0, 1]) == pytest.approx(
        extract_numeric_elements(inst), rel=0.05)


def test_calibrate_prefactor_roundtrip():
    # calibrated at a single distance, the formula reproduces the numeric
    # element at that distance exactly
    A = calibrate_prefactor(n=10, B_perp=1.5, distances=(5,), seed=0)
    assert A > 0
    inst = ImpurityBandInstance(n=10, marked=(0, 0b11111), eps=(0.0, 0.0),
                                W=0.1, B_perp=1.5)
    v_num = extract_numeric_elements(inst)
    v_cal = amplitude_table(10, 1.5, calibration_A=A)[5]
    assert v_cal == pytest.approx(v_num, rel=1e-6)


@pytest.mark.parametrize("d", [0, -1, 11])
def test_calibrate_prefactor_refuses_a_distance_outside_1_to_n(d, monkeypatch):
    # before any pair is extracted
    import pt_lab.downfold as downfold

    def refuse(inst):
        raise AssertionError("pair extracted")

    monkeypatch.setattr(downfold, "extract_numeric_elements", refuse)
    with pytest.raises(ValueError, match="need 1 <= d <= n"):
        calibrate_prefactor(n=10, B_perp=1.5, distances=(5, d), seed=0)


# ------------------------------------------- marked-subspace eigensystem

def _dense_marked(inst):
    """Eigenvalues and marked rows of the eigenvectors of the dense H."""
    vals, vecs = exact_eigs(inst)
    return vals, vecs[np.fromiter(inst.marked, dtype=np.int64), :]


def _dense_projection(inst):
    """Löwdin projection onto the M largest-marked-weight eigenstates of the
    dense H, with the base energy taken off the diagonal."""
    vals, amp = _dense_marked(inst)
    sel = np.sort(np.argsort((amp ** 2).sum(axis=0))[-inst.M:])
    A = amp[:, sel]
    s_vals, s_vecs = np.linalg.eigh(A @ A.T)
    S_inv_half = (s_vecs / np.sqrt(s_vals)) @ s_vecs.T
    H = S_inv_half @ (A * vals[sel]) @ A.T @ S_inv_half
    return 0.5 * (H + H.T) - inst.base_energy * np.eye(inst.M)


def _cumulative_weight(vals, weight, at):
    """Marked weight of the eigenstates with eigenvalue <= each of `at`."""
    order = np.argsort(vals)
    cum = np.concatenate([[0.0], np.cumsum(weight[order])])
    return cum[np.searchsorted(vals[order], at, side="right")]


_SUBSPACE_CASES = {
    "n11-seed0": lambda: gen_impurity_band(11, 6, 0.5, seed=0, B_perp=2.0),
    "n10-seed1": lambda: gen_impurity_band(10, 6, 0.5, seed=1, B_perp=2.0),
    "n10-seed2": lambda: gen_impurity_band(10, 6, 0.5, seed=2, B_perp=2.0),
    "n10-seed3": lambda: gen_impurity_band(10, 6, 0.5, seed=3, B_perp=2.0),
    # the band energy -n lies on the driver level -B(n - 2j) at j = 2
    "on-pole": lambda: gen_impurity_band(8, 6, 0.5, seed=0, B_perp=2.0),
    "M16": lambda: gen_impurity_band(9, 16, 0.5, seed=0, B_perp=2.0),
    # more marked states than C(6, j) for every j, so every level Gram
    # is rank deficient
    "M40": lambda: gen_impurity_band(6, 40, 0.5, seed=0, B_perp=2.0),
    "B0.6": lambda: gen_impurity_band(9, 6, 0.5, seed=2, B_perp=0.6),
    "d1": lambda: ImpurityBandInstance(n=10, marked=(0, 1), eps=(0.0, 0.0),
                                       W=0.1, B_perp=1.5),
    "antipodal": lambda: ImpurityBandInstance(n=10, marked=(0, 1023),
                                              eps=(0.0, 0.0), W=0.1, B_perp=1.5),
}


@pytest.mark.parametrize("case", list(_SUBSPACE_CASES))
def test_marked_eigensystem_matches_dense(case):
    inst = _SUBSPACE_CASES[case]()
    vals, amp = marked_eigensystem(inst)
    weight = (amp ** 2).sum(axis=0)
    assert len(vals) <= inst.M * (inst.n + 1)
    # every marked state lies in the subspace
    assert weight.sum() == pytest.approx(inst.M, abs=1e-12)
    d_vals, d_amp = _dense_marked(inst)
    d_weight = (d_amp ** 2).sum(axis=0)
    # same marked weight below every eigenvalue (a degenerate dense
    # eigenspace may spread its weight over any basis of itself)
    at = np.concatenate([vals - 1e-9, vals + 1e-9])
    np.testing.assert_allclose(_cumulative_weight(vals, weight, at),
                               _cumulative_weight(d_vals, d_weight, at),
                               rtol=0, atol=1e-12)
    sel = np.sort(np.argsort(weight)[-inst.M:])
    d_sel = np.sort(np.argsort(d_weight)[-inst.M:])
    np.testing.assert_allclose(vals[sel], d_vals[d_sel], rtol=0, atol=1e-12)
    np.testing.assert_allclose(weight[sel], d_weight[d_sel], rtol=0, atol=1e-12)
    mat = build_downfolded(inst, "numeric_extraction")
    np.testing.assert_allclose(mat.matrix, _dense_projection(inst),
                               rtol=0, atol=1e-12)
    if inst.M == 2:
        top = np.argsort(d_weight)[-2:]
        assert extract_numeric_elements(inst) == pytest.approx(
            abs(d_vals[top[0]] - d_vals[top[1]]) / 2, abs=1e-12)


def test_numeric_extraction_never_forms_the_dense_hamiltonian(monkeypatch,
                                                               traced_peak):
    import pt_lab.statevector as sv

    def refuse(*args, **kwargs):
        raise AssertionError("dense path called")

    monkeypatch.setattr(sv, "exact_eigs", refuse)
    monkeypatch.setattr(sv, "dense_hamiltonian", refuse)
    inst = gen_impurity_band(14, 3, 0.5, seed=0, B_perp=2.0)

    def run():
        build_downfolded(inst, "numeric_extraction")
        return calibrate_prefactor(n=14, B_perp=1.5, distances=(3, 7))

    prefactor, peak = traced_peak(run)
    assert prefactor > 0
    # the subspace has at most M (n + 1) = 45 dimensions, while one float64
    # vector over the 2^14 basis states takes 128 KiB
    assert peak < 8 << 14


def _krawtchouk(n, j, d):
    return sum((-1) ** k * math.comb(d, k) * math.comb(n - d, j - k)
               for k in range(min(d, j) + 1))


def _secular_system(inst):
    """E -> (diag(1/e) - G(E), G2(E)), with G_ab(E) = <m_a|(E - H_D)^-1|m_b>
    and G2 its squared-denominator partner, from the driver levels
    -B_perp (n - 2j), whose projectors have overlaps 2^-n K_j(d_ab)."""
    n = inst.n
    marked = np.asarray(inst.marked, dtype=np.uint64)
    dist = np.bitwise_count(marked[:, None] ^ marked[None, :]).astype(int)
    K = np.array([[_krawtchouk(n, j, d) for d in range(n + 1)]
                  for j in range(n + 1)], dtype=float) / 2.0 ** n
    level_gap = inst.B_perp * (n - 2 * np.arange(n + 1))
    inv_e = np.diag(1.0 / (inst.base_energy + np.asarray(inst.eps)))

    def at(E):
        r = 1.0 / (E + level_gap)
        return inv_e - (r @ K)[dist], ((r * r) @ K)[dist]
    return at


@pytest.mark.parametrize("n, M", [(n, M) for n in (16, 20, 24, 28, 32)
                                  for M in (2, 8)] + [(24, 64)])
def test_marked_eigensystem_solves_the_secular_equation(n, M):
    # past the dense reference: an eigenvalue E of the band satisfies
    # det(diag(1/e) - G(E)) = 0, and the marked components of its state
    # are x/e for the null vector x, normalized by x^T G2(E) x = 1
    inst = gen_impurity_band(n, M, 0.5, seed=n + M, B_perp=2.0)
    vals, amp = marked_eigensystem(inst)
    e = inst.base_energy + np.asarray(inst.eps)
    secular = _secular_system(inst)
    for k in np.argsort((amp ** 2).sum(axis=0))[-M:]:
        A, G2 = secular(vals[k])
        _, sig, vt = np.linalg.svd(A)
        assert sig[-1] / sig[0] <= 1e-10
        x = vt[-1] / math.sqrt(vt[-1] @ G2 @ vt[-1])
        c = x / e
        c *= np.sign(c @ amp[:, k])
        np.testing.assert_allclose(amp[:, k], c, rtol=0, atol=1e-9)
