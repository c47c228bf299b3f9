import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pt_lab.instances import (COUPLING_GRID, DIMER_J, ImpurityBandInstance,
                              SpinGlassInstance, all_classical_energies,
                              classical_energy, gen_impurity_band,
                              gen_spin_glass, ib_energy,
                              instance_from_dict, instance_to_dict,
                              load_instance, pair_energies, quantize_couplings,
                              spectrum_summary)
from pt_lab import instances
from pt_lab.bits import spins_from_labels
from pt_lab.io_utils import write_json


# ---------------------------------------------------------------- grid

def test_grid_endpoints():
    assert COUPLING_GRID[0] == -1.0
    assert COUPLING_GRID[-1] == 1.0
    assert len(COUPLING_GRID) == 64


@given(st.floats(-1.0, 1.0))
def test_quantize_lands_on_grid(x):
    q = quantize_couplings(np.array([x]))[0]
    assert np.min(np.abs(COUPLING_GRID - q)) < 1e-15
    # nearest-level property: error at most half the level spacing
    assert abs(q - x) <= (2.0 / 63.0) / 2.0 + 1e-12


def test_quantize_idempotent():
    x = quantize_couplings(np.linspace(-1, 1, 257))
    assert np.array_equal(quantize_couplings(x), x)


# ---------------------------------------------------------------- impurity band

def test_gen_impurity_band_basic():
    inst = gen_impurity_band(n=12, M=30, W=0.5, seed=3)
    assert inst.M == 30
    assert len(set(inst.marked)) == 30
    assert all(0 <= z < 4096 for z in inst.marked)
    eps = np.asarray(inst.eps)
    assert np.all(np.abs(eps) <= 0.25)
    assert inst.base_energy == -12.0


def test_gen_impurity_band_deterministic():
    a = gen_impurity_band(n=10, M=8, W=0.3, seed=7)
    b = gen_impurity_band(n=10, M=8, W=0.3, seed=7)
    assert a == b
    c = gen_impurity_band(n=10, M=8, W=0.3, seed=8)
    assert a != c


def test_gen_impurity_band_gauss_law_truncates():
    inst = gen_impurity_band(n=14, M=500, W=0.4, eps_law="gauss", seed=0)
    assert np.max(np.abs(inst.eps)) <= 0.2


def test_ib_energy_values():
    inst = gen_impurity_band(n=10, M=5, W=0.2, seed=1)
    E = all_classical_energies(inst)
    assert E.shape == (1024,)
    for z in range(1024):
        assert E[z] == ib_energy(inst, z)
    for z, e in zip(inst.marked, inst.eps):
        assert ib_energy(inst, z) == pytest.approx(-10.0 + e)
    unmarked = next(z for z in range(1024) if z not in inst.marked)
    assert ib_energy(inst, unmarked) == 0.0


def test_impurity_band_validation():
    with pytest.raises(ValueError):
        ImpurityBandInstance(n=4, marked=(1, 1), eps=(0.0, 0.0), W=0.1,
                             B_perp=1.0, seed=0)
    with pytest.raises(ValueError):
        ImpurityBandInstance(n=4, marked=(1,), eps=(0.0,), W=-0.1,
                             B_perp=1.0, seed=0)


# ---------------------------------------------------------------- spin glass

def test_gen_spin_glass_structure():
    g = gen_spin_glass(n=12, seed=4)
    J = np.asarray(g.J)
    assert np.array_equal(J, J.T)
    assert np.all(np.diag(J) == 0)
    # default dimer count is n // 2, pairs are disjoint
    assert len(g.dimers) == 6
    touched = [i for pair in g.dimers for i in pair]
    assert len(set(touched)) == len(touched)
    for i, j in g.dimers:
        assert J[i, j] == DIMER_J
    # every non-dimer coupling and every field sits on the 6-bit grid
    mask = np.ones_like(J, dtype=bool)
    for i, j in g.dimers:
        mask[i, j] = mask[j, i] = False
    np.fill_diagonal(mask, False)
    offgrid = np.abs(J[mask][:, None] - COUPLING_GRID[None, :]).min(axis=1)
    assert np.max(offgrid) < 1e-15
    hgrid = np.abs(np.asarray(g.h)[:, None] - COUPLING_GRID[None, :]).min(axis=1)
    assert np.max(hgrid) < 1e-15


def test_gen_spin_glass_dimer_count_override():
    g = gen_spin_glass(n=10, dimer_count=0, seed=0)
    assert g.dimers == ()
    g = gen_spin_glass(n=10, dimer_count=3, seed=0)
    assert len(g.dimers) == 3


def test_driver_coefficients_matched():
    g = gen_spin_glass(n=8, seed=2, driver_scale=0.2)
    hx, Jx = g.driver_coefficients()
    h = np.asarray(g.h)
    J = np.asarray(g.J)
    np.testing.assert_allclose(hx, 0.2 * (np.abs(h) + 1.0))
    expect = 0.2 * (np.abs(J) + 1.0)
    np.fill_diagonal(expect, 0.0)
    np.testing.assert_allclose(Jx, expect)


def test_classical_energy_matches_direct_sum():
    g = gen_spin_glass(n=8, seed=5)
    h = np.asarray(g.h)
    J = np.asarray(g.J)
    rng = np.random.default_rng(0)
    for z in rng.integers(0, 256, size=40):
        s = spins_from_labels(np.array([z], dtype=np.uint64), 8)[0]
        direct = h @ s + 0.5 * s @ J @ s
        assert classical_energy(g, int(z)) == pytest.approx(direct, rel=1e-12)


def test_all_energies_match_per_state():
    g = gen_spin_glass(n=8, seed=6)
    E = all_classical_energies(g)
    for z in range(256):
        assert E[z] == pytest.approx(classical_energy(g, z), rel=1e-12)


def test_pair_energies_matches_loop():
    g = gen_spin_glass(n=7, seed=1)
    labels = np.arange(128, dtype=np.uint64)
    E = pair_energies(np.asarray(g.h), np.asarray(g.J), labels)
    s = spins_from_labels(labels, 7)
    expect = s @ np.asarray(g.h) + 0.5 * np.einsum("ki,ij,kj->k", s,
                                                   np.asarray(g.J), s)
    np.testing.assert_allclose(E, expect, rtol=1e-12)


def test_spin_glass_validation():
    g = gen_spin_glass(n=6, seed=0)
    J = np.asarray(g.J).copy()
    J[0, 1] = 0.5
    with pytest.raises(ValueError):
        dataclasses.replace(g, J=tuple(map(tuple, J)))
    # dimer bonds must carry the fixed ferromagnetic value
    if g.dimers:
        i, j = g.dimers[0]
        J2 = np.asarray(g.J).copy()
        J2[i, j] = J2[j, i] = -3.0
        with pytest.raises(ValueError):
            dataclasses.replace(g, J=tuple(map(tuple, J2)))


# ---------------------------------------------------------------- serialization

def test_round_trip_spin_glass(tmp_path):
    g = gen_spin_glass(n=11, seed=9)
    doc = instance_to_dict(g)
    assert doc["version"] == 1
    assert doc["kind"] == "spin_glass"
    back = instance_from_dict(doc)
    assert back == g
    path = tmp_path / "inst.json"
    write_json(path, instance_to_dict(g))
    assert load_instance(path) == g


def test_round_trip_is_lossless_not_requantized():
    # stored values are grid indices, so a double round trip is exact
    g = gen_spin_glass(n=9, seed=12)
    once = instance_from_dict(instance_to_dict(g))
    twice = instance_from_dict(instance_to_dict(once))
    assert np.array_equal(np.asarray(once.J), np.asarray(twice.J))
    assert np.array_equal(np.asarray(once.h), np.asarray(twice.h))


def test_round_trip_impurity_band(tmp_path):
    inst = gen_impurity_band(n=13, M=17, W=0.6, seed=2, B_perp=1.5)
    doc = instance_to_dict(inst)
    assert doc["kind"] == "impurity_band"
    back = instance_from_dict(doc)
    assert back == inst
    path = tmp_path / "ib.json"
    write_json(path, instance_to_dict(inst))
    assert load_instance(path) == inst


def test_instance_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        instance_from_dict({"kind": "bogus", "version": 1})


# ---------------------------------------------------------------- spectrum

def test_spectrum_summary_counts():
    g = gen_spin_glass(n=10, seed=3)
    summ = spectrum_summary(g, bins=32)
    assert summ.counts.sum() == 1024
    E = all_classical_energies(g)
    assert summ.e_min == pytest.approx(E.min())
    assert summ.e_max == pytest.approx(E.max())


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_glass_energy_symmetric_under_global_flip_of_fields(seed):
    # with h = 0 the energy is invariant under flipping all spins
    g = gen_spin_glass(n=6, seed=seed)
    g0 = dataclasses.replace(g, h=(0.0,) * 6)
    E = all_classical_energies(g0)
    flipped = E[::-1].copy()  # z -> ~z reverses the index order bitwise
    np.testing.assert_allclose(np.sort(E), np.sort(flipped), rtol=1e-12)
    assert classical_energy(g0, 0) == pytest.approx(classical_energy(g0, 63))


@pytest.mark.parametrize("block", [4, 12, 64])
def test_pair_energies_independent_of_block_size(monkeypatch, block):
    # blocks of a multiple of 4 labels give the same bits; some other sizes
    # (1-3, 6, 7, ...) round differently in the matrix kernels
    g = gen_spin_glass(n=10, seed=2)
    labels = np.arange(1 << 10, dtype=np.uint64)
    expect = pair_energies(g.h, g.J, labels)
    monkeypatch.setattr(instances, "_ENUM_BLOCK", block)
    assert np.array_equal(pair_energies(g.h, g.J, labels), expect)


@pytest.mark.parametrize("n, seed, dimers", [(8, 0, None), (12, 1, 0),
                                             (16, 3, None), (16, 2, 0)])
def test_label_energies_match_the_table_bits(n, seed, dimers):
    # any subset of labels, of any size, gets the table's own bits without
    # the table, so the descent and the output columns agree with the basin
    # map
    g = gen_spin_glass(n=n, seed=seed, dimer_count=dimers)
    E = all_classical_energies(g)
    rng = np.random.default_rng(seed)
    for k in (1, 2, 3, 5, 6, 7, 17, 63, 1024):
        labels = rng.integers(0, 1 << n, size=k)
        assert np.array_equal(instances.label_energies(g, labels), E[labels])
    b = gen_impurity_band(n=n, M=6, W=0.5, seed=seed)
    labels = np.array([*b.marked, 0, 1, *b.marked[:2]])
    want = all_classical_energies(b)[labels]
    np.testing.assert_array_equal(instances.label_energies(b, labels), want)
