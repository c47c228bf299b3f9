import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pt_lab.bits import hamming_histogram_from
from pt_lab.instances import (all_classical_energies, classical_energy,
                              gen_impurity_band, gen_spin_glass)
from pt_lab import optimize
from pt_lab.optimize import (AnnealSchedule, LocalMinimumRecord,
                             alternation_contrast, basin_distribution,
                             enrichment_ratio, enumerate_local_minima,
                             local_minima,
                             median_hamming,
                             pair_hamming_histogram, pt_energy_window,
                             simulated_annealing, steepest_descent,
                             _descent_pointers)


def _greedy_reference(E, n, z):
    # independent per-state descent: best neighbor, lowest flip index
    # breaks ties, stop when no neighbor is strictly lower
    steps = 0
    while True:
        nbrs = [E[z ^ (1 << i)] for i in range(n)]
        best = int(np.argmin(nbrs))
        if nbrs[best] >= E[z]:
            return z, steps
        z ^= 1 << best
        steps += 1


def test_steepest_descent_matches_reference():
    g = gen_spin_glass(n=8, seed=3)
    E = all_classical_energies(g)
    rng = np.random.default_rng(0)
    for z in rng.integers(0, 256, size=50):
        rec = steepest_descent(g, int(z))
        want_z, want_steps = _greedy_reference(E, 8, int(z))
        assert rec.z == want_z
        assert rec.steps == want_steps
        assert rec.energy == pytest.approx(E[want_z], rel=1e-12)


def test_steepest_descent_fixed_point():
    g = gen_spin_glass(n=8, seed=3)
    rec = steepest_descent(g, 0)
    again = steepest_descent(g, rec.z)
    assert again.z == rec.z
    assert again.steps == 0


@pytest.mark.parametrize("make, starts", [
    # 3401 is a minimum of this table, but a descent on energies rounded
    # another way saw a lower flip and walked two steps to 3432
    pytest.param(lambda: gen_spin_glass(n=12, dimer_count=0, seed=2),
                 [3401, 300], id="glass-12-no-dimers"),
    pytest.param(lambda: gen_spin_glass(n=16, dimer_count=0, seed=3), [300],
                 id="glass-16-no-dimers"),
    pytest.param(lambda: gen_spin_glass(n=10, seed=1), [300], id="glass-10"),
    pytest.param(lambda: gen_spin_glass(n=7, seed=4), None, id="glass-7"),
    pytest.param(lambda: gen_impurity_band(8, 20, 0.5, seed=2), None,
                 id="band-8"),
])
def test_steepest_descent_ends_where_the_basin_map_sends_it(make, starts):
    # sd and the basin map read one landscape: every start descends to the
    # minimum the map assigns it, with that minimum's energy bit for bit.
    # starts lists given starts and then a count of random ones; None is all
    inst = make()
    n = inst.n
    minima, energies, _ = basin_distribution(inst)
    roots = optimize._basin_roots(all_classical_energies(inst), n)
    if starts is None:
        zs = range(1 << n)
    else:
        *given, count = starts
        zs = [*given, *np.random.default_rng(0).integers(0, 1 << n, count)]
    for z in zs:
        rec = steepest_descent(inst, int(z))
        assert rec.z == roots[z]
        assert rec.energy == energies[np.searchsorted(minima, rec.z)]


def test_enumerate_local_minima_is_exhaustive():
    g = gen_spin_glass(n=8, seed=11)
    E = all_classical_energies(g)
    recs = enumerate_local_minima(g)
    found = {r.z for r in recs}
    # brute force: a state is a minimum iff no neighbor is strictly lower
    want = {z for z in range(256)
            if all(E[z ^ (1 << i)] >= E[z] for i in range(8))}
    assert found == want
    # basin masses cover the whole space
    assert sum(r.basin_probability for r in recs) == pytest.approx(1.0,
                                                                   abs=1e-12)
    # every state descends into the basin it was counted in
    by_z = {r.z: r for r in recs}
    counts = {z: 0 for z in found}
    for z in range(256):
        counts[_greedy_reference(E, 8, z)[0]] += 1
    for z, c in counts.items():
        assert by_z[z].basin_probability == pytest.approx(c / 256.0)


def _stacked_pointers(E, n):
    # every state's n flip energies in one stack; argmin keeps the lowest
    # bit among tied flips, and a state moves only to a strictly lower one
    z = np.arange(1 << n)
    flips = np.stack([E[z ^ (1 << i)] for i in range(n)])
    return np.where(flips.min(axis=0) < E, z ^ (1 << flips.argmin(axis=0)), z)


@pytest.mark.parametrize("inst", [gen_impurity_band(n=9, M=6, W=0.3, seed=4),
                                  gen_spin_glass(n=12, seed=1)],
                         ids=["impurity-band", "spin-glass"])
def test_descent_pointers_match_stacked_argmin(inst):
    E = all_classical_energies(inst)
    np.testing.assert_array_equal(_descent_pointers(E, inst.n),
                                  _stacked_pointers(E, inst.n))


@pytest.mark.parametrize("inst", [gen_impurity_band(n=9, M=6, W=0.3, seed=4),
                                  gen_spin_glass(n=12, seed=1)],
                         ids=["impurity-band", "spin-glass"])
def test_descent_pointers_read_flips_across_blocks(inst, monkeypatch):
    # with 32-state blocks, flips of bit 5 and up land in another block
    monkeypatch.setattr(optimize, "_BLOCK", 1 << 5)
    E = all_classical_energies(inst)
    np.testing.assert_array_equal(_descent_pointers(E, inst.n),
                                  _stacked_pointers(E, inst.n))


@pytest.mark.parametrize("inst", [gen_impurity_band(n=9, M=6, W=0.3, seed=4),
                                  gen_spin_glass(n=12, seed=1)],
                         ids=["impurity-band", "spin-glass"])
def test_local_minima_are_the_basin_minima(inst):
    labels, energies = local_minima(inst)
    recs = enumerate_local_minima(inst)
    np.testing.assert_array_equal(labels, [r.z for r in recs])
    np.testing.assert_array_equal(energies, [r.energy for r in recs])


def test_marked_states_are_impurity_minima():
    inst = gen_impurity_band(n=9, M=6, W=0.3, seed=4)
    found = {r.z for r in enumerate_local_minima(inst)}
    energy = dict(zip(inst.marked, np.asarray(inst.eps) - 9.0))
    for z in inst.marked:
        # a marked state only fails to be a minimum when a strictly
        # deeper marked state sits one flip away
        deeper = any(energy.get(z ^ (1 << i), 0.0) < energy[z]
                     for i in range(9))
        assert (z in found) == (not deeper)


def test_basin_distribution_delta_law():
    g = gen_spin_glass(n=7, seed=6)
    E = all_classical_energies(g)
    z_start = 23
    law = np.zeros(128)
    law[z_start] = 1.0
    minima, energies, mass = basin_distribution(g, start_law=law)
    target, _ = _greedy_reference(E, 7, z_start)
    assert mass[minima.tolist().index(target)] == pytest.approx(1.0)
    assert mass.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(energies, E[minima], rtol=1e-12)


def test_basin_distribution_law_validation():
    g = gen_spin_glass(n=6, seed=0)
    with pytest.raises(ValueError):
        basin_distribution(g, start_law=np.ones(17))
    bad = np.full(64, 1.0 / 64.0)
    bad[0] += 0.01
    with pytest.raises(ValueError):
        basin_distribution(g, start_law=bad)


def test_enrichment_ratio_uniform_is_flat():
    g = gen_spin_glass(n=7, seed=2)
    uniform = np.full(128, 1.0 / 128.0)
    labels, energies, ratio, mass_pt, mass_u = enrichment_ratio(g, uniform)
    np.testing.assert_allclose(ratio, 1.0, rtol=1e-12)
    np.testing.assert_allclose(mass_pt, mass_u, rtol=1e-12)
    assert mass_u.sum() == pytest.approx(1.0)


def test_enrichment_ratio_concentrated_output():
    g = gen_spin_glass(n=7, seed=2)
    E = all_classical_energies(g)
    labels_all = enumerate_local_minima(g)
    pick = labels_all[0].z
    p = np.zeros(128)
    p[pick] = 1.0
    labels, energies, ratio, mass_pt, mass_u = enrichment_ratio(g, p)
    i = labels.tolist().index(pick)
    assert mass_pt[i] == pytest.approx(1.0)
    assert ratio[i] > 1.0
    others = np.delete(mass_pt, i)
    np.testing.assert_allclose(others, 0.0, atol=1e-15)


# ---------------------------------------------------------------- annealing

def test_anneal_schedule_shapes():
    sch = AnnealSchedule(T_start=3.0, T_end=0.05, sweeps=200)
    T = sch.temperatures()
    assert T.shape == (200,)
    assert T[0] == pytest.approx(3.0)
    assert T[-1] == pytest.approx(0.05)
    ratios = T[1:] / T[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
    lin = AnnealSchedule(T_start=2.0, T_end=1.0, sweeps=5, kind="linear")
    np.testing.assert_allclose(lin.temperatures(), [2.0, 1.75, 1.5, 1.25, 1.0])
    with pytest.raises(ValueError):
        AnnealSchedule(T_start=1.0, T_end=0.1, sweeps=0)
    with pytest.raises(ValueError):
        AnnealSchedule(T_start=1.0, T_end=0.1, sweeps=10, kind="sudden")


def test_simulated_annealing_consistency():
    g = gen_spin_glass(n=10, seed=1)
    sch = AnnealSchedule(T_start=3.0, T_end=0.05, sweeps=300)
    res = simulated_annealing(g, sch, seed=4)
    assert res.energy == pytest.approx(classical_energy(g, res.z), rel=1e-12)
    assert len(res.trace) == 300
    # the trace records the running state's energy, so it ends at the result
    assert res.trace[-1] == pytest.approx(res.energy)
    # deterministic under the seed
    again = simulated_annealing(g, sch, seed=4)
    assert again.z == res.z


def test_simulated_annealing_finds_low_energy():
    g = gen_spin_glass(n=10, seed=7)
    E = all_classical_energies(g)
    sch = AnnealSchedule(T_start=3.0, T_end=0.02, sweeps=600)
    best = min(simulated_annealing(g, sch, seed=s).energy for s in range(5))
    # within the lowest handful of local minima on an n = 10 instance
    recs = sorted(enumerate_local_minima(g), key=lambda r: r.energy)
    assert best <= recs[min(2, len(recs) - 1)].energy + 1e-9
    assert best >= E.min() - 1e-9


def test_simulated_annealing_fixed_start():
    g = gen_spin_glass(n=8, seed=9)
    res = simulated_annealing(g, AnnealSchedule(sweeps=50), seed=0,
                              z_start=17)
    assert 0 <= res.z < 256


# ---------------------------------------------------------------- statistics

def test_pt_energy_window_moments():
    E = np.array([0.0, 1.0, 2.0, 3.0])
    p = np.array([0.25, 0.25, 0.25, 0.25])
    lo, hi = pt_energy_window(p, E)
    mean, std = 1.5, np.sqrt(1.25)
    assert lo == pytest.approx(mean - std)
    assert hi == pytest.approx(mean + std)


def test_hamming_histogram_from_deltas():
    p = np.zeros(16)
    p[5] = 0.4          # distance 0 from 5
    p[4] = 0.6          # one flip away
    h = hamming_histogram_from(5, p, 4)
    np.testing.assert_allclose(h, [0.4, 0.6, 0.0, 0.0, 0.0])


def test_pair_hamming_histogram_hand_case():
    labels = np.array([0, 3], dtype=np.uint64)
    w = np.array([0.3, 0.7])
    h = pair_hamming_histogram(labels, w, n=4)
    # ordered pairs minus self-pairs: only (0,3) and (3,0) remain at d = 2
    np.testing.assert_allclose(h, [0.0, 0.0, 0.42, 0.0, 0.0], atol=1e-12)


def test_alternation_contrast_values():
    h = np.array([0.0, 0.2, 0.5, 0.0, 0.3])
    # even distances >= 2 carry 0.8, odd ones 0.2
    assert alternation_contrast(h) == pytest.approx((0.8 - 0.2) / 1.0)
    flat = np.array([1.0, 0.0, 0.0])
    assert alternation_contrast(flat) == 0.0


def test_median_hamming_values():
    assert median_hamming(np.array([0.2, 0.2, 0.6])) == 2
    assert median_hamming(np.array([0.6, 0.4])) == 0
    assert median_hamming(np.array([0.5, 0.5])) == 0


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_minima_have_no_lower_neighbor(seed):
    g = gen_spin_glass(n=6, seed=seed)
    E = all_classical_energies(g)
    for rec in enumerate_local_minima(g):
        nbrs = [E[rec.z ^ (1 << i)] for i in range(6)]
        assert min(nbrs) >= rec.energy
