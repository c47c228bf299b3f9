import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import hadamard
from scipy.special import jv

from pt_lab.bits import hamming_array, krawtchouk_table
from pt_lab.downfold import marked_eigensystem
from pt_lab.instances import (ImpurityBandInstance, all_classical_energies,
                              gen_impurity_band, gen_spin_glass)
from pt_lab.spectral import spectral_propagation
from pt_lab.statevector import (EvolutionConfig, dense_hamiltonian,
                                driver_x_diagonal, evolve_trotter, exact_eigs,
                                run_pt_protocol, sample_output,
                                _chebyshev_coefficients,
                                _fwht, _DenseBandPropagator, _FwhtPropagator,
                                _LevelPropagator, _propagator, _relabel)


def _two_level_instance(B, delta):
    # single spin: marked state 1 at energy -1 + delta, state 0 at zero
    return ImpurityBandInstance(n=1, marked=(1,), eps=(delta,), W=1.0,
                                B_perp=B, base_energy=-1.0)


def test_two_level_rabi_oscillation():
    # exact Rabi formula P(t) = (B^2/Omega^2) sin^2(Omega t) with
    # Omega^2 = B^2 + (dE/2)^2 for a detuned two-level system
    B, delta = 0.75, 0.3
    inst = _two_level_instance(B, delta)
    dE = (-1.0 + delta) - 0.0
    Om = np.hypot(B, dE / 2.0)
    vals, vecs = exact_eigs(inst)
    t = np.linspace(0.0, 12.0, 101)
    got = spectral_propagation(vals, vecs[1] * vecs[0], t)
    want = (B / Om) ** 2 * np.sin(Om * t) ** 2
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 12))
def test_fwht_is_self_inverse(n):
    # n = 1..11 covers sizes below the 4-bit block and every remainder;
    # scipy's Sylvester matrix is the independent reference, since a
    # permuted transform would also be self-inverse
    N = 1 << n
    rng = np.random.default_rng(n)
    v = rng.normal(size=N) + 1j * rng.normal(size=N)
    w = _fwht(v.copy())
    np.testing.assert_allclose(w, hadamard(N) @ v, atol=1e-12 * N)
    back = _fwht(w) / N
    np.testing.assert_allclose(back, v, atol=1e-12)


def test_fwht_allocates_one_scratch_state(traced_peak):
    N = 1 << 16
    v = np.random.default_rng(0).normal(size=N) + 0j
    v, peak = traced_peak(_fwht, v)
    assert peak <= v.nbytes + 64 * 1024


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
@pytest.mark.parametrize("n", range(1, 12))
def test_relabel_matches_gather(n, dtype):
    # a[x] <- a[x ^ z] against the 2^n-index gather; n = 1 has an empty
    # low half
    N = 1 << n
    rng = np.random.default_rng(n)
    v = rng.normal(size=N).astype(dtype)
    if dtype is np.complex128:
        v += 1j * rng.normal(size=N)
    for z in (0, 1, N - 1, int(rng.integers(N))):
        a = v.copy()
        assert _relabel(a, z, np.empty_like(a)) is a
        np.testing.assert_array_equal(a, v[np.arange(N) ^ z])


# every run takes the symmetric (Strang) product formula; the tests that
# once compared it with a first-order one keep its name in their ids
SYMMETRIC = pytest.mark.parametrize((), [pytest.param(id="symmetric")])


# the band times every exact band test covers
BAND_TIMES = (0.7, 10.0, 100.0)


def _exact_states(inst, start, times):
    # e^{-iHt} start by dense diagonalisation, start a basis-state label or
    # a 2^n vector
    vals, vecs = exact_eigs(inst)
    if np.ndim(start) == 0:
        start = np.eye(1 << inst.n)[start]
    coef = vecs.T @ start
    return [vecs @ (np.exp(-1j * vals * t) * coef) for t in times]


@pytest.mark.parametrize("tau", [0.5, 50.0, 500.0])
def test_chebyshev_coefficients_are_bessel_values(tau):
    # e^{-i tau x} = J_0(tau) + 2 sum_k (-i)^k J_k(tau) T_k(x); with
    # centre 0, half-width 1 and t = tau the coefficients are these values.
    # The FFT forms e^{-i tau cos(theta)}, whose phase rounds at tau * eps
    coef = _chebyshev_coefficients(tau, 0.0, 1.0)
    k = np.arange(len(coef))
    want = 2.0 * (-1j) ** k * jv(k, tau)
    want[0] *= 0.5
    np.testing.assert_allclose(coef, want, rtol=0, atol=1e-15 * max(1.0, tau))
    # the series runs past k = tau and stops where the terms fall below 1e-15
    assert len(coef) > tau and abs(coef[-1]) > 1e-15
    assert abs(jv(len(coef), tau)) < 1e-15


@SYMMETRIC
@pytest.mark.parametrize("B", [0.0, 0.6, 2.0])
@pytest.mark.parametrize("n, M, start", [
    *(pytest.param(n, min(4, 1 << n), "marked", id=str(n))
      for n in [1, 3, 5, 8, 11]),
    # every state marked: more centres than the level path takes
    pytest.param(3, 8, "marked", id="3-dense"),
    pytest.param(5, 32, "marked", id="5-dense"),
    pytest.param(12, 16, "marked", id="12-m16"),
    # an unmarked start joins the centres with no classical phase
    pytest.param(8, 4, "unmarked", id="8-unmarked"),
])
def test_uniform_trotter_matches_fwht_reference(n, M, start, B):
    # bands evolve exactly: the state agrees with dense diagonalisation for
    # n <= 10. Past that a dense eigh takes seconds, and the marked
    # amplitudes are checked against the marked-subspace eigensystem
    inst = gen_impurity_band(n=n, M=M, W=0.5, seed=n, B_perp=B)
    z0 = (inst.marked[-1] if start == "marked"
          else min(set(range(1 << n)) - set(inst.marked)))
    got = [evolve_trotter(inst, z0, EvolutionConfig(
        total_time=t, trotter_steps=40)) for t in BAND_TIMES]
    if n <= 10:
        want = _exact_states(inst, z0, BAND_TIMES)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        return
    vals, amp = marked_eigensystem(inst)
    marked = list(inst.marked)
    for t, psi in zip(BAND_TIMES, got):
        want = amp @ (np.exp(-1j * vals * t) * amp[marked.index(z0)])
        np.testing.assert_allclose(psi[marked], want, rtol=0, atol=1e-10)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)


def _spy_paths(monkeypatch):
    # counts the advance calls each backend runs: "level" and "dense" are
    # the band's two Chebyshev products, "fwht" the glass's Trotter path
    calls = {"level": 0, "dense": 0, "fwht": 0}

    def spy(name, backend):
        advance = backend.advance

        def counted(*args, **kwargs):
            calls[name] += 1
            return advance(*args, **kwargs)
        monkeypatch.setattr(backend, "advance", counted)

    spy("level", _LevelPropagator)
    spy("dense", _DenseBandPropagator)
    spy("fwht", _FwhtPropagator)
    return calls


def _backend(inst, z0):
    # the backend a run from |z0> holds
    return type(_propagator(inst, 0.1, z0))


def _moved_weight(inst, z0, p):
    # the weight moved out of |z0> read off the output distribution p: onto
    # the other marked states of a band, everything but z0 on a glass
    if isinstance(inst, ImpurityBandInstance):
        return float(p[[z for z in inst.marked if z != z0]].sum())
    return float(1.0 - p[z0])


def _check_propagator_composes(inst, z0, backend):
    # advance(a) then advance(b) against advance(a + b) at the same dt: on
    # the Trotter path the closing and reopening half-phases between the
    # calls cost a rounding error, no Trotter error; a band runs the same
    # sampled segments either way. A rung's weight is the one read off the
    # formed state: the same amplitudes on a 2^n state, level coordinates'
    # own overlaps on the level path
    split, whole = (_propagator(inst, 0.01, z0)
                    for _ in range(2))
    assert type(split) is backend
    samples = split.advance(100, every=10) + split.advance(100, every=10)
    np.testing.assert_allclose(samples, whole.advance(200, every=10),
                               rtol=0, atol=1e-12)
    weight = split.weight()
    psi = split.state()
    np.testing.assert_allclose(psi, whole.state(), rtol=0, atol=1e-12)
    want = _moved_weight(inst, z0, np.abs(psi) ** 2)
    if backend is not _LevelPropagator:
        assert weight == want
    else:
        assert weight == pytest.approx(want, abs=1e-12)
    assert not np.allclose(np.abs(psi[z0]), 1.0)


@pytest.mark.parametrize("extra, start, B, path", [
    # n = 8: the level path takes M_c^2 <= 2^8 centres, the 2^n state the
    # rest (ids keep the name "fwht" for it)
    (0, "marked", 2.0, "level"),
    (1, "marked", 2.0, "fwht"),
    (-1, "unmarked", 2.0, "level"),
    (0, "unmarked", 2.0, "fwht"),
    # with no field too: W's start column stays exact, and
    # test_zero_field_run_returns_input reads a transferred weight of 0.0
    (0, "marked", 0.0, "level"),
])
def test_uniform_path_selection(monkeypatch, extra, start, B, path):
    n = 8
    M = 16 + extra
    inst = gen_impurity_band(n=n, M=M, W=0.5, seed=2, B_perp=B)
    unmarked = sorted(set(range(1 << n)) - set(inst.marked))
    z0 = unmarked[0] if start == "unmarked" else inst.marked[0]
    calls = _spy_paths(monkeypatch)
    got = [evolve_trotter(inst, z0, EvolutionConfig(
        total_time=t, trotter_steps=5)) for t in BAND_TIMES]
    path = "dense" if path == "fwht" else path
    assert calls == {"level": 3 * (path == "level"),
                     "dense": 3 * (path == "dense"), "fwht": 0}
    want = _exact_states(inst, z0, BAND_TIMES)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    res = run_pt_protocol(inst, z0, EvolutionConfig(total_time=0.7,
                                                    trotter_steps=5))
    assert calls[path] == 4
    np.testing.assert_allclose(res.probabilities, np.abs(want[0]) ** 2,
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", range(1, 12))
def test_level_reconstruction_matches_distance_sum(n):
    # psi(z) = sum_b f_b(d(z, c_b)) with f_b = 2^-n K W[:, b]; n = 1 leaves
    # the low half of the grouped products empty, odd n splits unevenly
    rng = np.random.default_rng(n)
    marked = tuple(int(z) for z in rng.choice(1 << n, size=min(5, 1 << n),
                                              replace=False))
    inst = ImpurityBandInstance(n=n, marked=marked, eps=np.zeros(len(marked)),
                                W=1.0, B_perp=1.0)
    # one unmarked centre, the start, where there is room for it
    z0 = min(set(range(1 << n)) - set(marked)) if n > 2 else marked[0]
    levels = _LevelPropagator(inst, 1.0, z0)
    W = (rng.normal(size=(n + 1, len(levels.centres)))
         + 1j * rng.normal(size=(n + 1, len(levels.centres))))
    f = krawtchouk_table(n).T @ W / (1 << n)
    want = sum(f[hamming_array(np.arange(1 << n), c), b]
               for b, c in enumerate(levels.centres))
    np.testing.assert_allclose(levels.amplitudes(W), want, atol=1e-12)
    np.testing.assert_allclose(levels.overlaps(W), want[levels.centres],
                               atol=1e-12)


@SYMMETRIC
def test_band_segments_compose():
    # level coordinates, and the 2^n state of a dense band (M^2 > 2^6)
    inst = gen_impurity_band(n=8, M=6, W=0.5, seed=4, B_perp=1.3)
    _check_propagator_composes(inst, inst.marked[2], _LevelPropagator)
    dense = gen_impurity_band(n=6, M=9, W=0.5, seed=4, B_perp=1.3)
    _check_propagator_composes(dense, dense.marked[2], _DenseBandPropagator)


@pytest.mark.parametrize("kind", ["glass", "level-band", "dense-band"])
def test_unstepped_propagator_forms_its_start(kind):
    # with no step taken, the state formed is the start itself, on every
    # backend; the level-band start is an unmarked label, a centre of its own
    if kind == "glass":
        inst, z0 = gen_spin_glass(n=6, seed=2), 9
    else:
        inst = gen_impurity_band(n=8, M=6 if kind == "level-band" else 17,
                                 W=0.5, seed=4, B_perp=1.3)
        z0 = (min(set(range(1 << 8)) - set(inst.marked))
              if kind == "level-band" else inst.marked[2])
    unmoved = _propagator(inst, 0.05, z0)
    assert type(unmoved) is {"glass": _FwhtPropagator,
                             "level-band": _LevelPropagator,
                             "dense-band": _DenseBandPropagator}[kind]
    np.testing.assert_allclose(unmoved.state(), np.eye(1 << inst.n)[z0],
                               rtol=0, atol=1e-15)


@SYMMETRIC
def test_band_ladder_weights_match_full_state_runs():
    inst = gen_impurity_band(n=7, M=5, W=0.5, seed=6, B_perp=1.1)
    z0, dt = inst.marked[1], 0.1
    res = run_pt_protocol(inst, z0, EvolutionConfig(
        dt=dt, start_time=1.0, max_doublings=3, saturation_rtol=1e-12))
    np.testing.assert_allclose(res.ladder_times, [1.0, 2.0, 4.0, 8.0])
    exact = _exact_states(inst, z0, res.ladder_times)
    for w, psi in zip(res.ladder_weights, exact):
        assert w == pytest.approx(
            _moved_weight(inst, z0, np.abs(psi) ** 2), abs=1e-12)
    assert res.ladder_weights[-1] > 0.01
    assert res.transferred_weight == res.ladder_weights[-1]


def test_uniform_trotter_builds_no_state_sized_table(monkeypatch, traced_peak):
    # the level path keeps the state and one scratch: no 2^n phase
    # table, no x-basis driver diagonal, no classical-energy vector, and
    # no 2^n start, which the traced call builds from its label. A marked
    # and an unmarked start both run in level coordinates
    import pt_lab.statevector as sv

    def forbidden(*args, **kwargs):
        raise AssertionError("the uniform driver needs no 2^n table")

    monkeypatch.setattr(sv, "driver_x_diagonal", forbidden)
    monkeypatch.setattr(sv, "all_classical_energies", forbidden)
    calls = _spy_paths(monkeypatch)
    inst = gen_impurity_band(n=16, M=64, W=0.5, seed=0, B_perp=2.0)
    cfg = EvolutionConfig(total_time=1.0, trotter_steps=4)
    for z0 in [inst.marked[0], min(set(range(1 << 16)) - set(inst.marked))]:
        calls.update(level=0, dense=0, fwht=0)
        out, peak = traced_peak(evolve_trotter, inst, z0, cfg)
        assert calls == {"level": 1, "dense": 0, "fwht": 0}
        assert peak <= 2.25 * out.nbytes
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["glass", "dense-band"])
def test_fwht_trotter_holds_five_states(monkeypatch, traced_peak, kind):
    # the glass's Trotter path: the state, the segment's scratch and three
    # phase tables, ph_cl, ph_full and ph_half, which a sampled symmetric
    # run keeps as its survival probe. The dense band (M^2 > 2^16) runs its
    # Chebyshev recurrence on the 2^n state: T_0 (the state), T_1, the sum
    # and the product's two scratch arrays. Rung weights read one amplitude
    # (a band's: its marked ones), and the output distribution is formed
    # after the tables are released. The traced evolve_trotter call builds
    # its start from its label
    if kind == "glass":
        inst, z0 = gen_spin_glass(n=16, seed=3), 59518
    else:
        inst = gen_impurity_band(n=16, M=300, W=0.5, seed=3, B_perp=2.0)
        z0 = inst.marked[0]
    all_classical_energies(inst)  # kept on the instance, before the trace
    calls = _spy_paths(monkeypatch)
    bound = 5.25 * np.zeros(1 << 16, dtype=np.complex128).nbytes
    res, peak = traced_peak(run_pt_protocol, inst, z0, EvolutionConfig(
        dt=0.1, start_time=0.5, max_doublings=1, saturation_rtol=0.0))
    # two rungs of 5 steps, sampled after every step
    assert len(res.survival) == 11 and len(res.ladder_weights) == 2
    assert peak <= bound
    _, peak = traced_peak(evolve_trotter, inst, z0,
                          EvolutionConfig(total_time=0.5, trotter_steps=5))
    assert peak <= bound
    path = "fwht" if kind == "glass" else "dense"
    assert calls == {"level": 0, "dense": 0, "fwht": 0, path: 3}


def test_uniform_trotter_norm_drift_over_long_runs(monkeypatch):
    # t = 1000 at n = 12; the bound is fixed here, not fitted. M = 8 runs in
    # level coordinates, the dense band (M = 65, M^2 > 2^12) on the 2^n
    # state; each is one expansion, split into pieces of half-width * time
    # at most _MAX_TAU
    calls = _spy_paths(monkeypatch)
    for M in (8, 65):
        inst = gen_impurity_band(n=12, M=M, W=0.5, seed=3, B_perp=2.0)
        out = evolve_trotter(inst, inst.marked[0], EvolutionConfig(
            total_time=1000.0, trotter_steps=20000))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10
    assert calls == {"level": 1, "dense": 1, "fwht": 0}


def test_driver_spectrum_matches_dense():
    # the x-basis diagonal must reproduce the dense driver spectrum
    g = gen_spin_glass(n=5, seed=3)
    g0 = dataclasses.replace(g, h=np.zeros(5), J=np.zeros((5, 5)), dimers=())
    H = dense_hamiltonian(g0)
    # the classical part of g0 vanishes, so H is the driver alone
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(H)),
                               np.sort(driver_x_diagonal(g0)), atol=1e-10)


def test_dense_hamiltonian_structure():
    inst = gen_impurity_band(n=6, M=4, W=0.3, seed=1, B_perp=1.3)
    H = dense_hamiltonian(inst)
    np.testing.assert_allclose(H, H.T, atol=0)
    E = all_classical_energies(inst)
    np.testing.assert_allclose(np.diag(H), E)
    # single-flip entries are -B, everything else off the diagonal is 0
    for z in (0, 5, 63):
        for i in range(6):
            assert H[z, z ^ (1 << i)] == pytest.approx(-1.3)
    assert H[0, 3] == 0.0
    # a glass takes its matched driver: field terms on single flips, bond
    # terms on pair flips
    g = gen_spin_glass(n=6, seed=0)
    H = dense_hamiltonian(g)
    hx, Jx = g.driver_coefficients()
    for z in (0, 5, 63):
        for i in range(6):
            assert H[z, z ^ (1 << i)] == hx[i]
            for j in range(i + 1, 6):
                assert H[z, z ^ (1 << i) ^ (1 << j)] == Jx[i, j]


def test_exact_eigs_reconstruction():
    g = gen_spin_glass(n=6, seed=7)
    vals, vecs = exact_eigs(g)
    H = dense_hamiltonian(g)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, H, atol=1e-10)


def test_long_time_average_dephases():
    # averaging |<z0|e^{-iHt}|z0>|^2 over long times leaves the diagonal
    # ensemble value sum_blocks (sum_{g in block} |<g|z0>|^2)^2, where a
    # block collects exactly degenerate levels
    inst = gen_impurity_band(n=6, M=6, W=0.5, seed=5, B_perp=0.9)
    vals, vecs = exact_eigs(inst)
    z0 = inst.marked[0]
    w = vecs[z0] ** 2
    order = np.argsort(vals)
    blocks = np.concatenate([[0], np.cumsum(np.diff(vals[order]) > 1e-9)])
    target = np.sum(np.bincount(blocks, weights=w[order]) ** 2)
    t = np.linspace(0.0, 4000.0, 40001)
    mean = spectral_propagation(vals, vecs[z0] * vecs[z0], t).mean()
    assert mean == pytest.approx(target, rel=0.02)


@pytest.mark.parametrize("kind", ["matched"])
def test_trotter_converges_to_exact(kind):
    # the spin glass runs the matched driver; halving dt quarters the error
    # of a second-order product formula
    g = gen_spin_glass(n=6, seed=1)
    z0 = 9
    T = 4.0
    vals, vecs = exact_eigs(g)
    phases = np.exp(-1j * vals * T)
    psi_exact = vecs @ (phases * vecs[z0])
    err = {}
    for steps in (400, 800):
        psi = evolve_trotter(g, z0, EvolutionConfig(
            total_time=T, trotter_steps=steps))
        err[steps] = np.linalg.norm(psi - psi_exact)
    assert err[800] < 1e-3
    assert 3.9 <= err[400] / err[800] <= 4.1


def test_trotter_segments_compose():
    # 200 steps equal two calls of 100 steps at the same dt
    g = gen_spin_glass(n=5, seed=8)
    _check_propagator_composes(g, 3, _FwhtPropagator)


@SYMMETRIC
@pytest.mark.parametrize("z0", [21, 0, 63])
def test_survival_trace_matches_fixed_time_runs(monkeypatch, z0):
    # rungs of 10, 10 and 20 steps at 4 trace points sample every 3, 3
    # and 6 steps, each rung ending on a shorter leftover chunk. Both the
    # sampled run and the unsampled fixed-time runs work in z0's frame
    # (z0 = 0: the identity frame)
    import pt_lab.statevector as sv

    monkeypatch.setattr(sv, "_TRACE_POINTS", 4)
    g = gen_spin_glass(n=6, seed=5)
    dt = 0.1
    res = run_pt_protocol(g, z0, EvolutionConfig(
        dt=dt, start_time=1.0, max_doublings=2, saturation_rtol=1e-12))
    steps = np.rint(res.times / dt).astype(int)
    np.testing.assert_array_equal(steps, [0, 3, 6, 9, 10, 13, 16, 19, 20,
                                          26, 32, 38, 40])
    for t, k, s in zip(res.times[1:], steps[1:], res.survival[1:]):
        psi = evolve_trotter(g, z0, EvolutionConfig(
            total_time=t, trotter_steps=k))
        assert s == pytest.approx(abs(psi[z0]) ** 2, abs=1e-12)
    # the rung weight reads one amplitude, the output weight all of them
    assert res.ladder_weights[-1] == res.transferred_weight


@SYMMETRIC
def test_uniform_survival_trace_matches_fixed_time_runs(monkeypatch):
    # the impurity-band copy of the test above: same rungs and samples,
    # one expansion per sampled segment in level coordinates (M = 5) and,
    # on a dense band (M = 9, M^2 > 2^6), on the 2^n state
    import pt_lab.statevector as sv

    monkeypatch.setattr(sv, "_TRACE_POINTS", 4)
    calls = _spy_paths(monkeypatch)
    for M, path in [(5, "level"), (9, "dense")]:
        calls.update(level=0, dense=0, fwht=0)
        g = gen_impurity_band(n=6, M=M, W=0.5, seed=5, B_perp=1.3)
        z0, dt = g.marked[0], 0.1
        res = run_pt_protocol(g, z0, EvolutionConfig(
            dt=dt, start_time=1.0, max_doublings=2, saturation_rtol=1e-12))
        steps = np.rint(res.times / dt).astype(int)
        np.testing.assert_array_equal(steps, [0, 3, 6, 9, 10, 13, 16, 19,
                                              20, 26, 32, 38, 40])
        for t, k, s in zip(res.times[1:], steps[1:], res.survival[1:]):
            psi = evolve_trotter(g, z0, EvolutionConfig(
                total_time=t, trotter_steps=k))
            assert s == pytest.approx(abs(psi[z0]) ** 2, abs=1e-12)
        assert not np.allclose(res.survival, 1.0)
        assert {name for name, count in calls.items() if count} == {path}
        assert res.ladder_weights[-1] == res.transferred_weight


@SYMMETRIC
@pytest.mark.parametrize("kind", ["glass", "dense-band", "level-band"])
def test_last_survival_sample_is_the_output_probability(kind):
    # the closing sample and the output distribution read the same
    # amplitude through the same abs, so they agree bit for bit; the dense
    # band (M^2 > 2^8) runs on the 2^n state, the M = 6 band in level
    # coordinates
    if kind == "glass":
        inst = gen_spin_glass(n=8, seed=4)
        z0 = 77
    else:
        M = 20 if kind == "dense-band" else 6
        inst = gen_impurity_band(n=8, M=M, W=0.5, seed=4, B_perp=1.3)
        z0 = inst.marked[0]
        assert (_backend(inst, z0) is _DenseBandPropagator) == (M == 20)
    for t in (0.7, 1.3, 2.9, 4.1, 6.6, 9.5):
        res = run_pt_protocol(inst, z0, EvolutionConfig(
            total_time=t, trotter_steps=int(10 * t)))
        assert res.survival[-1] == res.probabilities[z0], t


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 500), st.floats(0.1, 5.0), st.integers(1, 60),
       st.floats(0.0, 3.0))
def test_uniform_trotter_preserves_norm(seed, T, steps, B):
    # M = 4 runs in level coordinates, the dense band M = 6 (M^2 > 2^5)
    # on the 2^n state
    for M in (4, 6):
        g = gen_impurity_band(n=5, M=M, W=0.5, seed=seed, B_perp=B)
        z0 = g.marked[seed % 4]
        assert (_backend(g, z0) is _DenseBandPropagator) == (M == 6)
        cfg = EvolutionConfig(total_time=T, trotter_steps=steps)
        out = evolve_trotter(g, z0, cfg)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 500), st.floats(0.1, 5.0), st.integers(1, 60))
def test_trotter_preserves_norm(seed, T, steps):
    g = gen_spin_glass(n=5, seed=seed)
    cfg = EvolutionConfig(total_time=T, trotter_steps=steps)
    out = evolve_trotter(g, seed % 32, cfg)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_evolve_requires_time_and_matching_size():
    # a label past 2^n is a start of a larger system
    g = gen_spin_glass(n=5, seed=0)
    with pytest.raises(ValueError, match="total_time"):
        evolve_trotter(g, 0, EvolutionConfig())
    with pytest.raises(ValueError, match="does not fit in 5 bits"):
        evolve_trotter(g, 32, EvolutionConfig(total_time=1.0))


def test_zero_time_evolve_returns_the_start():
    g = gen_spin_glass(n=5, seed=0)
    psi = evolve_trotter(g, 17, EvolutionConfig(total_time=0.0))
    np.testing.assert_array_equal(psi, np.eye(32, dtype=complex)[17])


def test_resolve_steps():
    assert EvolutionConfig(trotter_steps=17).resolve_steps(5.0) == 17
    assert EvolutionConfig(dt=0.3).resolve_steps(1.0) == 4
    assert EvolutionConfig().resolve_steps(2.0) == 300


def test_zero_field_run_returns_input():
    inst = gen_impurity_band(n=8, M=4, W=0.2, seed=6, B_perp=0.0)
    z0 = inst.marked[0]
    res = run_pt_protocol(inst, z0, EvolutionConfig(dt=0.1, start_time=2.0,
                                                    max_doublings=3))
    assert res.probabilities[z0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(res.survival, 1.0, atol=1e-12)
    assert res.saturated is True
    assert res.transferred_weight == 0.0


def test_fixed_time_run_basics():
    g = gen_spin_glass(n=8, seed=2)
    res = run_pt_protocol(g, 17, EvolutionConfig(total_time=6.0,
                                                 trotter_steps=120))
    assert res.total_time == 6.0
    assert res.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.survival[0] == 1.0
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(6.0)
    assert res.energy_hist.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.hamming_hist.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.hamming_hist.shape == (9,)
    # survival trace agrees with the output distribution at the endpoint
    assert res.survival[-1] == pytest.approx(res.probabilities[17], abs=1e-12)


def test_saturation_ladder_doubles_time():
    g = gen_spin_glass(n=8, seed=2)
    res = run_pt_protocol(g, 17, EvolutionConfig(dt=0.1, start_time=1.0,
                                                 max_doublings=3,
                                                 saturation_rtol=1e-12))
    # an unattainable tolerance exhausts every doubling
    assert res.saturated is False
    np.testing.assert_allclose(res.ladder_times, [1.0, 2.0, 4.0, 8.0])
    assert res.total_time == pytest.approx(8.0)
    assert len(res.ladder_weights) == 4


@pytest.mark.parametrize("kind", ["glass", "level-band", "dense-band"])
def test_time_past_the_phase_limit_is_refused(kind):
    # from bound * t = 2^52 on, e^{-i lambda t} keeps no correct digit: a
    # fixed time there is refused before it runs, and a glass ladder runs
    # its rungs at limit / 3 and 2 limit / 3 and refuses the next one. A
    # band rung that close to the limit would run ~1e11 expansions
    if kind == "glass":
        inst, z0 = gen_spin_glass(n=6, seed=5), 21
    else:
        M = 9 if kind == "dense-band" else 3
        inst = gen_impurity_band(n=6, M=M, W=0.5, seed=1)
        z0 = inst.marked[0]
    bound = _propagator(inst, 1.0, z0).bound
    limit = 2.0 ** 52 / bound
    for t in (1.001 * limit, 1e307):
        with pytest.raises(ValueError, match="out of range"):
            evolve_trotter(inst, z0, EvolutionConfig(
                total_time=t, trotter_steps=1))
    if kind == "glass":
        rungs = []
        with pytest.raises(ValueError, match="out of range"):
            run_pt_protocol(inst, z0, EvolutionConfig(
                dt=limit / 3, start_time=limit / 3, saturation_rtol=0.0),
                on_rung=lambda t, w, change: rungs.append(t))
        np.testing.assert_allclose(rungs, [limit / 3, 2 * limit / 3])


@pytest.mark.parametrize("M", [3, 9], ids=["level-band", "dense-band"])
def test_band_call_past_the_work_bound_is_refused(monkeypatch, M):
    # a band call with half-width * time past _MAX_TAU ** 2 is refused
    # before it runs, and a ladder checks each rung before its call. A
    # smaller _MAX_TAU keeps the calls that do run cheap
    import pt_lab.statevector as sv

    monkeypatch.setattr(sv, "_MAX_TAU", 8.0)
    inst = gen_impurity_band(n=6, M=M, W=0.5, seed=1)
    z0 = inst.marked[0]
    limit = 64.0 / _propagator(inst, 1.0, z0).half
    evolve_trotter(inst, z0, EvolutionConfig(
        total_time=0.99 * limit, trotter_steps=1))
    with pytest.raises(ValueError, match="2\\^28"):
        evolve_trotter(inst, z0, EvolutionConfig(
            total_time=1.01 * limit, trotter_steps=1))
    rungs = []
    with pytest.raises(ValueError, match="2\\^28"):
        run_pt_protocol(inst, z0, EvolutionConfig(
            dt=limit / 3, start_time=limit / 3, saturation_rtol=0.0),
            on_rung=lambda t, w, change: rungs.append(t))
    # calls of limit/3, limit/3 and 2 limit/3 run; the next, 4 limit/3, not
    np.testing.assert_allclose(rungs, [limit / 3, 2 * limit / 3, 4 * limit / 3])


def test_transferred_weight_conventions():
    # a band moves weight onto its other marked states, a glass onto every
    # other label; the run reads it from the propagator, not from p
    ib = gen_impurity_band(n=6, M=3, W=0.2, seed=1)
    z0, z1, z2 = ib.marked
    res = run_pt_protocol(ib, z0, EvolutionConfig(total_time=3.0))
    p = res.probabilities
    assert 1.0 - p[z0] - p[z1] - p[z2] > 0.01  # weight off the marked states
    assert res.transferred_weight == pytest.approx(p[z1] + p[z2])
    g = gen_spin_glass(n=6, seed=1)
    res = run_pt_protocol(g, 5, EvolutionConfig(total_time=3.0))
    assert res.transferred_weight == pytest.approx(1.0 - res.probabilities[5])


def test_sample_output_deterministic():
    g = gen_spin_glass(n=6, seed=9)
    res = run_pt_protocol(g, 11, EvolutionConfig(total_time=3.0,
                                                 trotter_steps=60))
    a = sample_output(res, shots=500, seed=4)
    b = sample_output(res, shots=500, seed=4)
    assert a.shape == (500,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_output(res, shots=500, seed=5))


def test_exact_eigs_b_perp_override():
    inst = gen_impurity_band(n=5, M=2, W=0.2, seed=3, B_perp=1.0)
    vals0, _ = exact_eigs(dataclasses.replace(inst, B_perp=0.0))
    E = np.sort(all_classical_energies(inst))
    np.testing.assert_allclose(np.sort(vals0), E, atol=1e-12)
