import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import hadamard

from pt_lab.bits import hamming_array, krawtchouk_table
from pt_lab.instances import (ImpurityBandInstance, all_classical_energies,
                              gen_impurity_band, gen_spin_glass)
from pt_lab.statevector import (EvolutionConfig, StateVector,
                                dense_hamiltonian, driver_terms,
                                driver_x_diagonal, evolve_trotter, exact_eigs,
                                run_pt_protocol, sample_output,
                                transferred_weight, transition_distribution,
                                transition_probability, _fwht,
                                _FwhtPropagator, _LevelPropagator, _propagator)


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
    eigs = exact_eigs(inst)
    t = np.linspace(0.0, 12.0, 101)
    got = transition_probability(eigs, 0, 1, t)
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


# every run takes the symmetric (Strang) product formula; the tests that
# once compared it with a first-order one keep its name in their ids
SYMMETRIC = pytest.mark.parametrize((), [pytest.param(id="symmetric")])


def _fwht_reference(inst, start, T, steps):
    # the basis-alternating symmetric product formula: e^{-i H_D t} is H_n
    # times the x-basis phases times H_n / N, with H_D's x-basis eigenvalues
    # -B (n - 2 popcount(x)); start is a basis-state label or a 2^n vector
    n, N = inst.n, 1 << inst.n
    dt = T / steps
    Dx = -inst.B_perp * (n - 2.0 * np.bitwise_count(np.arange(N)))
    ph_cl = np.exp(-1j * dt * all_classical_energies(inst))

    def drive(psi, t):
        return _fwht(np.exp(-1j * t * Dx) * _fwht(psi)) / N

    if np.ndim(start) == 0:
        psi = np.zeros(N, dtype=complex)
        psi[start] = 1.0
    else:
        psi = np.asarray(start, dtype=complex)
    for _ in range(steps):
        psi = drive(ph_cl * drive(psi, dt / 2), dt / 2)
    return psi


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
    inst = gen_impurity_band(n=n, M=M, W=0.5, seed=n, B_perp=B)
    z0 = (inst.marked[-1] if start == "marked"
          else min(set(range(1 << n)) - set(inst.marked)))
    cfg = EvolutionConfig(total_time=3.0, trotter_steps=40)
    got = evolve_trotter(StateVector.basis_state(n, z0), inst, cfg)
    want = _fwht_reference(inst, z0, 3.0, 40)
    np.testing.assert_allclose(got.amplitudes, want, atol=1e-12)


def _spy_paths(monkeypatch):
    # counts the advance calls each backend runs
    calls = {"level": 0, "fwht": 0}

    def spy(name, backend):
        advance = backend.advance

        def counted(*args, **kwargs):
            calls[name] += 1
            return advance(*args, **kwargs)
        monkeypatch.setattr(backend, "advance", counted)

    spy("level", _LevelPropagator)
    spy("fwht", _FwhtPropagator)
    return calls


def _backend(inst, z0):
    # the backend a transfer run from |z0> holds: its start is given on
    # its support, as run_pt_protocol passes it
    return type(_propagator(inst, 0.1, np.ones(1), z0, support=[z0]))


def _check_propagator_composes(inst, z0, backend):
    # advance(a) then advance(b) against advance(a + b) at the same dt: the
    # closing and reopening half-phases between the calls cost a rounding
    # error, no Trotter error. A rung's weight is the formed state's
    # transferred_weight: the same amplitudes on the FWHT path, level
    # coordinates' own overlaps on the level path
    start = StateVector.basis_state(inst.n, z0).amplitudes
    split, whole = (_propagator(inst, 0.01, start, z0) for _ in range(2))
    assert type(split) is backend
    samples = split.advance(100, every=10) + split.advance(100, every=10)
    np.testing.assert_allclose(samples, whole.advance(200, every=10),
                               rtol=0, atol=1e-12)
    weight = split.weight(z0)
    psi = split.state()
    np.testing.assert_allclose(psi, whole.state(), rtol=0, atol=1e-12)
    want = transferred_weight(inst, z0, np.abs(psi) ** 2)
    if backend is _FwhtPropagator:
        assert weight == want
    else:
        assert weight == pytest.approx(want, abs=1e-12)
    assert not np.allclose(np.abs(psi[z0]), 1.0)


@pytest.mark.parametrize("extra, start, B, path", [
    # n = 8: the level path takes M_c^2 <= 2^8 centres
    (0, "marked", 2.0, "level"),
    (1, "marked", 2.0, "fwht"),
    (-1, "unmarked", 2.0, "level"),
    (0, "unmarked", 2.0, "fwht"),
    # a basis state times a phase, or a sparse superposition: one centre
    # per unmarked label of the support
    (0, "phase", 2.0, "level"),
    (0, "superposition", 2.0, "level"),
    (-2, "spread", 2.0, "level"),
    (-1, "spread", 2.0, "fwht"),
    # every amplitude nonzero
    (0, "dense", 2.0, "fwht"),
    # with no field too: W's start column stays exact, and
    # test_zero_field_run_returns_input reads a transferred weight of 0.0
    (0, "marked", 0.0, "level"),
])
def test_uniform_path_selection(monkeypatch, extra, start, B, path):
    n = 8
    M = 16 + extra
    inst = gen_impurity_band(n=n, M=M, W=0.5, seed=2, B_perp=B)
    unmarked = sorted(set(range(1 << n)) - set(inst.marked))
    amps = np.zeros(1 << n, dtype=complex)
    if start == "unmarked":
        amps[unmarked[0]] = 1.0
    elif start == "superposition":
        amps[list(inst.marked[:2])] = np.sqrt(0.5)
    elif start == "spread":
        # a marked state and two unmarked ones, each with its own amplitude
        amps[[unmarked[7], inst.marked[3], unmarked[2]]] = [0.6, 0.48j, -0.64]
    elif start == "dense":
        rng = np.random.default_rng(M)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
    else:
        amps[inst.marked[0]] = 1j if start == "phase" else 1.0
    state = StateVector(amps, n)
    calls = _spy_paths(monkeypatch)
    cfg = EvolutionConfig(total_time=1.0, trotter_steps=5)
    got = evolve_trotter(state, inst, cfg).amplitudes
    assert calls == {"level": path == "level", "fwht": path == "fwht"}
    want = _fwht_reference(inst, amps, 1.0, 5)
    np.testing.assert_allclose(got, want, atol=1e-12)
    if np.count_nonzero(amps) == 1:
        z0 = int(np.flatnonzero(amps)[0])
        res = run_pt_protocol(inst, z0, cfg)
        assert calls[path] == 2
        np.testing.assert_allclose(res.probabilities, np.abs(want) ** 2,
                                   atol=1e-12)


@pytest.mark.parametrize("n", range(1, 12))
def test_level_reconstruction_matches_distance_sum(n):
    # psi(z) = sum_b f_b(d(z, c_b)) with f_b = 2^-n K W[:, b]; n = 1 leaves
    # the low half of the grouped products empty, odd n splits unevenly
    rng = np.random.default_rng(n)
    marked = tuple(int(z) for z in rng.choice(1 << n, size=min(5, 1 << n),
                                              replace=False))
    inst = ImpurityBandInstance(n=n, marked=marked, eps=np.zeros(len(marked)),
                                W=1.0, B_perp=1.0)
    # one unmarked centre where there is room for it
    levels = _LevelPropagator(inst, 1.0, [], [],
                              [min(set(range(1 << n)) - set(marked))]
                              if n > 2 else [])
    W = (rng.normal(size=(n + 1, len(levels.centres)))
         + 1j * rng.normal(size=(n + 1, len(levels.centres))))
    f = krawtchouk_table(n).T @ W / (1 << n)
    want = sum(f[hamming_array(np.arange(1 << n), c), b]
               for b, c in enumerate(levels.centres))
    np.testing.assert_allclose(levels.amplitudes(W), want, atol=1e-12)
    np.testing.assert_allclose(levels.overlaps(W), want[levels.centres],
                               atol=1e-12)


@SYMMETRIC
def test_band_segments_compose(monkeypatch):
    # the first half runs in level coordinates; its output has 2^n
    # nonzero amplitudes, so the second half takes the FWHT path
    inst = gen_impurity_band(n=8, M=6, W=0.5, seed=4, B_perp=1.3)
    state = StateVector.basis_state(8, inst.marked[2])
    whole = evolve_trotter(state, inst, EvolutionConfig(
        total_time=2.0, trotter_steps=200))
    calls = _spy_paths(monkeypatch)
    half = evolve_trotter(state, inst, EvolutionConfig(
        total_time=1.0, trotter_steps=100))
    again = evolve_trotter(half, inst, EvolutionConfig(
        total_time=1.0, trotter_steps=100))
    assert calls == {"level": 1, "fwht": 1}
    np.testing.assert_allclose(again.amplitudes, whole.amplitudes, atol=1e-12)
    # the propagators themselves: level coordinates, and the FWHT path of
    # a dense band (M^2 > 2^6)
    _check_propagator_composes(inst, inst.marked[2], _LevelPropagator)
    dense = gen_impurity_band(n=6, M=9, W=0.5, seed=4, B_perp=1.3)
    _check_propagator_composes(dense, dense.marked[2], _FwhtPropagator)


@pytest.mark.parametrize("kind", ["glass", "level-band", "dense-band"])
def test_start_on_its_support_matches_the_full_start(kind):
    # the same start given over all 2^n states and on its support picks
    # the same backend, and the runs agree bit for bit; the level-band
    # start is a marked and an unmarked label with complex amplitudes
    if kind == "glass":
        inst = gen_spin_glass(n=6, seed=2)
        support, amps = [9], [1.0]
    else:
        inst = gen_impurity_band(n=8, M=6 if kind == "level-band" else 17,
                                 W=0.5, seed=4, B_perp=1.3)
        free = min(set(range(1 << 8)) - set(inst.marked))
        support = sorted({inst.marked[2], free} if kind == "level-band"
                         else {inst.marked[2]})
        amps = ([np.sqrt(0.5), 1j * np.sqrt(0.5)] if kind == "level-band"
                else [1.0])
    full = np.zeros(1 << inst.n, dtype=complex)
    full[support] = amps
    z0 = support[0]
    dense, sparse, unmoved = (
        _propagator(inst, 0.05, full, z0),
        *(_propagator(inst, 0.05, np.asarray(amps), z0, support=support)
          for _ in range(2)))
    assert type(dense) is type(sparse)
    assert type(dense) is (_LevelPropagator if kind == "level-band"
                           else _FwhtPropagator)
    # with no step taken, the state formed is the start itself
    np.testing.assert_allclose(unmoved.state(), full, rtol=0, atol=1e-15)
    assert dense.advance(20, every=5) == sparse.advance(20, every=5)
    assert dense.weight(z0) == sparse.weight(z0)
    np.testing.assert_array_equal(dense.state(), sparse.state())


@SYMMETRIC
def test_band_ladder_weights_match_full_state_runs():
    inst = gen_impurity_band(n=7, M=5, W=0.5, seed=6, B_perp=1.1)
    z0, dt = inst.marked[1], 0.1
    res = run_pt_protocol(inst, z0, EvolutionConfig(
        dt=dt, start_time=1.0, max_doublings=3, saturation_rtol=1e-12))
    np.testing.assert_allclose(res.ladder_times, [1.0, 2.0, 4.0, 8.0])
    for t, w in zip(res.ladder_times, res.ladder_weights):
        psi = _fwht_reference(inst, z0, t, round(t / dt))
        assert w == pytest.approx(
            transferred_weight(inst, z0, np.abs(psi) ** 2), abs=1e-12)
    assert res.ladder_weights[-1] > 0.01


def test_uniform_trotter_builds_no_state_sized_table(monkeypatch, traced_peak):
    # the level path keeps the state and one scratch: no 2^n phase
    # table, no x-basis driver diagonal, no classical-energy vector. The
    # basis-state start and the superposition of two marked states both
    # run in level coordinates
    import pt_lab.statevector as sv

    def forbidden(*args, **kwargs):
        raise AssertionError("the uniform driver needs no 2^n table")

    monkeypatch.setattr(sv, "driver_x_diagonal", forbidden)
    monkeypatch.setattr(sv, "all_classical_energies", forbidden)
    calls = _spy_paths(monkeypatch)
    inst = gen_impurity_band(n=16, M=64, W=0.5, seed=0, B_perp=2.0)
    pair = np.zeros(1 << 16, dtype=np.complex128)
    pair[list(inst.marked[:2])] = np.sqrt(0.5)
    cfg = EvolutionConfig(total_time=1.0, trotter_steps=4)
    for state in [StateVector.basis_state(16, inst.marked[0]),
                  StateVector(pair, 16)]:
        calls.update(level=0, fwht=0)
        out, peak = traced_peak(evolve_trotter, state, inst, cfg)
        assert calls == {"level": 1, "fwht": 0}
        assert peak < 3 * out.amplitudes.nbytes
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["glass", "dense-band"])
def test_fwht_trotter_holds_five_states(monkeypatch, traced_peak, kind):
    # the state, the segment's scratch and three phase tables: ph_cl,
    # ph_full and ph_half, which a sampled symmetric run keeps as its
    # survival probe. Rung weights read one amplitude (a band's: its
    # marked ones), and the output distribution is formed after the tables
    # are released. The dense band (M^2 > 2^16) takes this path too
    if kind == "glass":
        inst, z0 = gen_spin_glass(n=16, seed=3), 59518
    else:
        inst = gen_impurity_band(n=16, M=300, W=0.5, seed=3, B_perp=2.0)
        z0 = inst.marked[0]
    all_classical_energies(inst)  # kept on the instance, before the trace
    calls = _spy_paths(monkeypatch)
    state = StateVector.basis_state(16, z0)
    bound = 5.25 * state.amplitudes.nbytes
    res, peak = traced_peak(run_pt_protocol, inst, z0, EvolutionConfig(
        dt=0.1, start_time=0.5, max_doublings=1, saturation_rtol=0.0))
    # two rungs of 5 steps, sampled after every step
    assert len(res.survival) == 11 and len(res.ladder_weights) == 2
    assert peak <= bound
    _, peak = traced_peak(evolve_trotter, state, inst,
                          EvolutionConfig(total_time=0.5, trotter_steps=5))
    assert peak <= bound
    assert calls == {"level": 0, "fwht": 3}


def test_uniform_trotter_norm_drift_over_long_runs(monkeypatch):
    # 20 000 steps at n = 12; the bound is fixed here, not fitted. M = 8
    # runs in level coordinates, the dense band (M = 65, M^2 > 2^12) on
    # the FWHT path
    calls = _spy_paths(monkeypatch)
    for M in (8, 65):
        inst = gen_impurity_band(n=12, M=M, W=0.5, seed=3, B_perp=2.0)
        state = StateVector.basis_state(12, inst.marked[0])
        out = evolve_trotter(state, inst, EvolutionConfig(
            total_time=1000.0, trotter_steps=20000))
        assert abs(out.norm() - 1.0) <= 1e-10
    assert calls == {"level": 1, "fwht": 1}


def test_driver_spectrum_matches_dense():
    # the x-basis diagonal must reproduce the dense driver spectrum
    g = gen_spin_glass(n=5, seed=3)
    g0 = dataclasses.replace(g, h=np.zeros(5), J=np.zeros((5, 5)), dimers=())
    H = dense_hamiltonian(g0)
    # the classical part of g0 vanishes, so H is the driver alone
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(H)),
                               np.sort(driver_x_diagonal(g0)), atol=1e-10)


def test_driver_terms_type_checks():
    # the instance type picks the driver
    ib = gen_impurity_band(n=6, M=3, W=0.2, seed=0)
    g = gen_spin_glass(n=6, seed=0)
    with pytest.raises(TypeError):
        driver_terms(object())
    hx, Jx = driver_terms(ib)
    assert Jx is None
    np.testing.assert_allclose(hx, -1.0)
    hx, Jx = driver_terms(g)
    np.testing.assert_array_equal(hx, g.driver_coefficients()[0])
    np.testing.assert_array_equal(Jx, g.driver_coefficients()[1])


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


def test_exact_eigs_reconstruction():
    g = gen_spin_glass(n=6, seed=7)
    vals, vecs = exact_eigs(g)
    H = dense_hamiltonian(g)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, H, atol=1e-10)


def test_transition_distribution_is_normalized():
    inst = gen_impurity_band(n=7, M=6, W=0.4, seed=2)
    eigs = exact_eigs(inst)
    for t in (0.0, 0.7, 3.3, 11.0):
        p = transition_distribution(eigs, 5, t)
        assert p.shape == (128,)
        assert np.all(p >= -1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


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
    mean = transition_probability((vals, vecs), z0, z0, t).mean()
    assert mean == pytest.approx(target, rel=0.02)


@pytest.mark.parametrize("kind", ["matched", "uniform"])
def test_trotter_converges_to_exact(kind):
    # the spin glass runs the matched driver, the impurity band the uniform
    # one; halving dt quarters the error of a second-order product formula
    if kind == "matched":
        g = gen_spin_glass(n=6, seed=1)
        z0 = 9
    else:
        g = gen_impurity_band(n=6, M=4, W=0.3, seed=1)
        z0 = g.marked[0]
    T = 4.0
    vals, vecs = exact_eigs(g)
    phases = np.exp(-1j * vals * T)
    psi_exact = vecs @ (phases * vecs[z0])
    state = StateVector.basis_state(6, z0)
    err = {}
    for steps in (400, 800):
        psi = evolve_trotter(state, g, EvolutionConfig(
            total_time=T, trotter_steps=steps)).amplitudes
        err[steps] = np.linalg.norm(psi - psi_exact)
    assert err[800] < 1e-3
    assert 3.9 <= err[400] / err[800] <= 4.1


def test_trotter_segments_compose():
    # one 200-step run equals two 100-step runs at the same dt
    g = gen_spin_glass(n=5, seed=8)
    state = StateVector.basis_state(5, 3)
    whole = evolve_trotter(state, g,
                           EvolutionConfig(total_time=2.0, trotter_steps=200))
    half = evolve_trotter(state, g,
                          EvolutionConfig(total_time=1.0, trotter_steps=100))
    again = evolve_trotter(half, g,
                           EvolutionConfig(total_time=1.0, trotter_steps=100))
    np.testing.assert_allclose(again.amplitudes, whole.amplitudes, atol=1e-12)
    _check_propagator_composes(g, 3, _FwhtPropagator)


@SYMMETRIC
def test_survival_trace_matches_fixed_time_runs(monkeypatch):
    # rungs of 10, 10 and 20 steps at 4 trace points sample every 3, 3
    # and 6 steps, each rung ending on a shorter leftover chunk
    import pt_lab.statevector as sv

    monkeypatch.setattr(sv, "_TRACE_POINTS", 4)
    g = gen_spin_glass(n=6, seed=5)
    z0, dt = 21, 0.1
    res = run_pt_protocol(g, z0, EvolutionConfig(
        dt=dt, start_time=1.0, max_doublings=2, saturation_rtol=1e-12))
    steps = np.rint(res.times / dt).astype(int)
    np.testing.assert_array_equal(steps, [0, 3, 6, 9, 10, 13, 16, 19, 20,
                                          26, 32, 38, 40])
    state = StateVector.basis_state(6, z0)
    for t, k, s in zip(res.times[1:], steps[1:], res.survival[1:]):
        psi = evolve_trotter(state, g, EvolutionConfig(
            total_time=t, trotter_steps=k)).amplitudes
        assert s == pytest.approx(abs(psi[z0]) ** 2, abs=1e-12)
    # the rung weight reads one amplitude, the output weight all of them
    assert res.ladder_weights[-1] == res.transferred_weight


@SYMMETRIC
def test_uniform_survival_trace_matches_fixed_time_runs(monkeypatch):
    # the impurity-band copy of the test above: same rungs and samples,
    # read inside level-coordinate segments (M = 5) and, on a dense band
    # (M = 9, M^2 > 2^6), inside FWHT segments
    import pt_lab.statevector as sv

    monkeypatch.setattr(sv, "_TRACE_POINTS", 4)
    calls = _spy_paths(monkeypatch)
    for M, path in [(5, "level"), (9, "fwht")]:
        calls.update(level=0, fwht=0)
        g = gen_impurity_band(n=6, M=M, W=0.5, seed=5, B_perp=1.3)
        z0, dt = g.marked[0], 0.1
        res = run_pt_protocol(g, z0, EvolutionConfig(
            dt=dt, start_time=1.0, max_doublings=2, saturation_rtol=1e-12))
        steps = np.rint(res.times / dt).astype(int)
        np.testing.assert_array_equal(steps, [0, 3, 6, 9, 10, 13, 16, 19,
                                              20, 26, 32, 38, 40])
        state = StateVector.basis_state(6, z0)
        for t, k, s in zip(res.times[1:], steps[1:], res.survival[1:]):
            psi = evolve_trotter(state, g, EvolutionConfig(
                total_time=t, trotter_steps=k)).amplitudes
            assert s == pytest.approx(abs(psi[z0]) ** 2, abs=1e-12)
        assert not np.allclose(res.survival, 1.0)
        assert {name for name, count in calls.items() if count} == {path}
        if path == "fwht":  # rung weights read the marked amplitudes
            assert res.ladder_weights[-1] == res.transferred_weight


@SYMMETRIC
@pytest.mark.parametrize("kind", ["glass", "dense-band", "level-band"])
def test_last_survival_sample_is_the_output_probability(kind):
    # the closing sample and the output distribution read the same
    # amplitude through the same abs, so they agree bit for bit; the dense
    # band (M^2 > 2^8) runs the FWHT path, the M = 6 band level coordinates
    if kind == "glass":
        inst = gen_spin_glass(n=8, seed=4)
        z0 = 77
    else:
        M = 20 if kind == "dense-band" else 6
        inst = gen_impurity_band(n=8, M=M, W=0.5, seed=4, B_perp=1.3)
        z0 = inst.marked[0]
        assert (_backend(inst, z0) is _FwhtPropagator) == (M == 20)
    for t in (0.7, 1.3, 2.9, 4.1, 6.6, 9.5):
        res = run_pt_protocol(inst, z0, EvolutionConfig(
            total_time=t, trotter_steps=int(10 * t)))
        assert res.survival[-1] == res.probabilities[z0], t


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 500), st.floats(0.1, 5.0), st.integers(1, 60),
       st.floats(0.0, 3.0))
def test_uniform_trotter_preserves_norm(seed, T, steps, B):
    # M = 4 runs in level coordinates, the dense band M = 6 (M^2 > 2^5)
    # on the FWHT path
    for M in (4, 6):
        g = gen_impurity_band(n=5, M=M, W=0.5, seed=seed, B_perp=B)
        z0 = g.marked[seed % 4]
        assert (_backend(g, z0) is _FwhtPropagator) == (M == 6)
        state = StateVector.basis_state(5, z0)
        cfg = EvolutionConfig(total_time=T, trotter_steps=steps)
        out = evolve_trotter(state, g, cfg)
        assert out.norm() == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 500), st.floats(0.1, 5.0), st.integers(1, 60))
def test_trotter_preserves_norm(seed, T, steps):
    g = gen_spin_glass(n=5, seed=seed)
    state = StateVector.basis_state(5, seed % 32)
    cfg = EvolutionConfig(total_time=T, trotter_steps=steps)
    out = evolve_trotter(state, g, cfg)
    assert out.norm() == pytest.approx(1.0, abs=1e-9)


def test_evolve_requires_time_and_matching_size():
    g = gen_spin_glass(n=5, seed=0)
    state = StateVector.basis_state(5, 0)
    with pytest.raises(ValueError):
        evolve_trotter(state, g, EvolutionConfig())
    with pytest.raises(ValueError):
        evolve_trotter(StateVector.basis_state(4, 0), g,
                       EvolutionConfig(total_time=1.0))


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


def test_transferred_weight_conventions():
    ib = gen_impurity_band(n=6, M=3, W=0.2, seed=1)
    p = np.zeros(64)
    z0, z1, z2 = ib.marked
    p[z0], p[z1], p[z2] = 0.5, 0.2, 0.1
    p[(z0 + 1) % 64] = 0.2
    assert transferred_weight(ib, z0, p) == pytest.approx(0.3)
    g = gen_spin_glass(n=6, seed=1)
    assert transferred_weight(g, 5, p) == pytest.approx(1.0 - p[5])


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
