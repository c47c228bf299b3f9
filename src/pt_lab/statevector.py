"""Exact quantum dynamics: Trotter evolution and dense diagonalization.

The Hamiltonian is H = H_cl + H_D with H_cl diagonal in the computational
basis. Two drivers are supported:

* uniform transverse field, H_D = -B_perp * sum_i sigma^x_i, for the
  impurity band;
* matched driver for the spin glass,
  H_D = driver_scale * [sum_i (|h_i|+1) sigma^x_i
                        + sum_{i<j} (|J_ij|+1) sigma^x_i sigma^x_j].

Every run uses one product formula, the symmetric (Strang) splitting
e^{-i H_D dt/2} e^{-i H_cl dt} e^{-i H_D dt/2} per step, whose error is
second order in dt.

A run holds one propagator, chosen once from the instance and the start
(_propagator). Its two backends share three methods:
advance(steps, every) takes Trotter steps and returns the survival
samples, weight(z0) reads the transferred weight, and state() releases the
backend's tables and forms the 2^n output once. The one rule between them:

* an impurity band whose start has M_c^2 <= 2^n centres (the marked states
  plus the unmarked labels the start occupies) runs in level coordinates
  (_LevelPropagator). The uniform driver has n + 1 levels (x-basis popcount
  j, energy -B_perp (n - 2j)), and only the M marked states carry classical
  energy, so span{P_j |c_b>} over the levels j and the centres c_b is
  invariant under both Trotter factors. A step there costs
  O(n^2 M_c + M_c^2) and builds no 2^n table;
* every other run, a glass included, takes the FWHT path
  (_FwhtPropagator). Both drivers are diagonal in the x basis, so a step
  alternates between the two bases via a fast Walsh-Hadamard transform,
  blocked as one 16 x 16 matrix product per 4 index bits with one scratch
  state. It holds five 2^n complex arrays at most: the state, the scratch
  and three phase tables.

evolve_trotter and the transfer protocol (run_pt_protocol) run the same
backend-free path on either. A transfer run advances each rung of its time
ladder in one call and reads the survival trace inside it, without closing
the symmetric splitting per sample.

A dense eigensolver backend covers small systems for cross-checks and for
spectral formulas that need the full eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import (check_bitstring, check_n, hamming_table, index_array,
                   krawtchouk_table)
from .instances import (
    ImpurityBandInstance,
    SpinGlassInstance,
    all_classical_energies,
    pair_energies,
)
from .optimize import hamming_histogram_from

TROTTER_MAX_N = 24
DENSE_MAX_N = 14
NORM_TOL = 1e-8
_TIME_BLOCK = 32
# survival samples per ladder rung, give or take (see run_pt_protocol)
_TRACE_POINTS = 257

# index bits per blocked matrix product
_BLOCK_BITS = 4
# Sylvester Hadamard block H_4, (-1)^{popcount(i & j)}; its top-left
# 2^k x 2^k corner is H_k
_HADAMARD = 1.0 - 2.0 * (
    np.bitwise_count(np.arange(16)[:, None] & np.arange(16)) & 1)
# the same block acting on the (re, im) pairs of a complex state's float view
_HADAMARD_PAIRS = np.kron(_HADAMARD, np.eye(2))
# _fwht's blocks by size 2^k: H_k from the left, H_k (x) I_2 on the pairs
_HADAMARD_LEFT = {1 << k: _HADAMARD[:1 << k, :1 << k] for k in range(1, 5)}
_HADAMARD_RIGHT = {1 << k: _HADAMARD_PAIRS[:2 << k, :2 << k]
                   for k in range(1, 5)}


@dataclass
class StateVector:
    amplitudes: np.ndarray
    n: int

    def __post_init__(self):
        check_n(self.n)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError("amplitudes must have length 2^n")
        self.amplitudes = amps

    @classmethod
    def basis_state(cls, n: int, z: int) -> "StateVector":
        z = check_bitstring(z, n)
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[z] = 1.0
        return cls(amps, n)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class EvolutionConfig:
    """Time grid of the Trotter backend, whose one product formula is the
    symmetric splitting (see evolve_trotter).

    With total_time set, trotter_steps (default 300) fixes dt; passing dt
    instead derives the step count. With total_time = None the transfer
    protocol runs a doubling ladder starting at start_time and stops when
    the transferred weight changes by less than saturation_rtol over one
    doubling of t.
    """

    total_time: float | None = None
    trotter_steps: int | None = None
    dt: float | None = None
    start_time: float = 1.0
    saturation_rtol: float = 0.01
    max_doublings: int = 16

    def __post_init__(self):
        if self.total_time is not None and not np.isfinite(self.total_time):
            raise ValueError("total_time must be finite")
        if self.total_time is not None and self.total_time < 0:
            raise ValueError("total_time must be >= 0")
        if self.trotter_steps is not None and self.trotter_steps < 1:
            raise ValueError("trotter_steps must be >= 1")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not (np.isfinite(self.start_time) and self.start_time > 0):
            raise ValueError("start_time must be finite and > 0, "
                             f"got {self.start_time}")
        if not (np.isfinite(self.saturation_rtol) and self.saturation_rtol >= 0):
            raise ValueError("saturation_rtol must be finite and >= 0, "
                             f"got {self.saturation_rtol}")
        if self.max_doublings < 0:
            raise ValueError("max_doublings must be >= 0, "
                             f"got {self.max_doublings}")

    def resolve_steps(self, total_time: float) -> int:
        if self.trotter_steps is not None:
            return self.trotter_steps
        if self.dt is not None:
            return max(1, int(np.ceil(total_time / self.dt)))
        return 300


def driver_terms(inst):
    """Per-flip driver coefficients (hx, Jx) of inst's driver: the uniform
    one of an impurity band (Jx None) or the matched one of a spin glass."""
    if isinstance(inst, ImpurityBandInstance):
        return np.full(inst.n, -inst.B_perp), None
    if isinstance(inst, SpinGlassInstance):
        return inst.driver_coefficients()
    raise TypeError(f"not an instance: {type(inst)!r}")


def driver_x_diagonal(inst) -> np.ndarray:
    """Eigenvalues of H_D over the x basis, ordered by x-basis label."""
    hx, Jx = driver_terms(inst)
    n = inst.n
    if Jx is None:
        pop = np.bitwise_count(index_array(n)).astype(np.int64)
        return hx[0] * (n - 2.0 * pop)
    return pair_energies(hx, Jx, index_array(n))


def _fwht(a: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform (matrix entries +-1) of a
    contiguous complex128 vector of length 2^n, 4 index bits per np.matmul
    pass on its float64 view.

    A group of k index bits (4, or n mod 4 in the last pass) gets the
    2^k x 2^k Sylvester block H_k from the left. The lowest group instead
    multiplies (re, im) pairs from the right by H_k (x) I_2, so it is one
    matrix product rather than one per 16-element group. Passes alternate
    between `a` and one scratch buffer (`scratch` when given, a state of
    a's shape, else a new one), so the extra memory is at most one state.
    The result may live in `a`'s buffer or in the scratch, and both are
    overwritten, so call it as `psi = _fwht(psi)`.
    """
    n = a.shape[0].bit_length() - 1
    src = a.view(np.float64)
    dst = np.empty_like(src) if scratch is None else scratch.view(np.float64)
    for lo in range(0, n, _BLOCK_BITS):
        K = 1 << min(_BLOCK_BITS, n - lo)
        if lo == 0:
            np.matmul(src.reshape(-1, 2 * K), _HADAMARD_RIGHT[K],
                      out=dst.reshape(-1, 2 * K))
        else:
            np.matmul(_HADAMARD_LEFT[K], src.reshape(-1, K, 2 << lo),
                      out=dst.reshape(-1, K, 2 << lo))
        src, dst = dst, src
    return src.view(np.complex128)


def _fwht_swap(psi: np.ndarray, spare: np.ndarray):
    """_fwht of psi with spare as its scratch: (transform, free buffer),
    the free buffer being whichever of the two the transform left."""
    out = _fwht(psi, spare)
    return out, (spare if np.may_share_memory(out, psi) else psi)


def _parity_factors(n: int, z0: int):
    """(-1)^{popcount(x & z0)} as a (2^(n-h), 1) factor over the high index
    bits and a (1, 2^h) factor over the low ones, h = n // 2: their product
    broadcast over a state's (2^(n-h), 2^h) reshape."""
    h = n // 2
    return (_parity_signs(np.arange(1 << (n - h)), np.array([z0 >> h])),
            _parity_signs(np.array([z0]), np.arange(1 << h)))


def _survival_probe(z0: int, ph_half: np.ndarray) -> np.ndarray:
    """Turn ph_half, in place, into the probe r with <z0|psi> = r . phi for
    the x-basis state phi of the symmetric splitting before its closing
    half-phase: r = (-1)^{x.z0} ph_half / N. Both factors are exact, so
    _half_from_probe gets ph_half back bit for bit."""
    hi, lo = _parity_factors(ph_half.shape[0].bit_length() - 1, z0)
    rows = ph_half.reshape(len(hi), -1)
    rows *= hi
    rows *= lo
    ph_half *= 1.0 / ph_half.shape[0]
    return ph_half


def _half_from_probe(probe: np.ndarray, z0: int, out: np.ndarray) -> np.ndarray:
    """ph_half = (-1)^{x.z0} N probe, the inverse of _survival_probe,
    written into out."""
    hi, lo = _parity_factors(probe.shape[0].bit_length() - 1, z0)
    rows = out.reshape(len(hi), -1)
    np.multiply(probe.reshape(rows.shape), hi, out=rows)
    rows *= lo
    out *= float(out.shape[0])
    return out


def _z_probability(psi: np.ndarray, z: int) -> float:
    """|psi[z]|^2 read through a 1-element slice: numpy's array abs, the one
    np.abs(psi) ** 2 uses, whose bits can differ from the scalar abs."""
    return float((np.abs(psi[z:z + 1]) ** 2)[0])


def _parity_signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(-1)^{popcount(a_i & b_k)} as a float (len(a), len(b)) table."""
    return 1.0 - 2.0 * (np.bitwise_count(a[:, None] & b) & 1)


def _phase_tables(E, Dx, dt):
    """Phase tables (ph_cl, ph_half, ph_full) of one step, each exponent
    formed in its table's buffer; ph_cl includes the 1/N of the transforms
    (a power of two, so the scaling is exact)."""
    ph_cl = np.multiply(-1j * dt, E)
    np.exp(ph_cl, out=ph_cl)
    ph_cl *= 1.0 / ph_cl.shape[0]
    ph_half = np.multiply(-0.5j * dt, Dx)
    np.exp(ph_half, out=ph_half)
    return ph_cl, ph_half, ph_half * ph_half


class _FwhtPropagator:
    """The FWHT path at step dt, for either driver: the 2^n state psi in
    the z basis, formed from the start amps, and three 2^n phase tables from
    _phase_tables. ph_cl carries the 1/N of the two unnormalized transforms
    of each step. With z0 given, ph_half becomes the survival probe in
    place (_survival_probe), and each opening and closing half-phase
    rebuilds it from the probe into the free buffer (_half_from_probe).
    """

    def __init__(self, inst, dt: float, amps: np.ndarray, support=None, z0=None):
        self.inst = inst
        # module globals, looked up per run, so a wrapper bound in their
        # place (perfbench's tracer, a test's monkeypatch) sees the call
        self.ph_cl, self.ph_half, self.ph_full = _phase_tables(
            all_classical_energies(inst), driver_x_diagonal(inst), dt)
        self.z0, self.probe = z0, None
        if z0 is not None:
            self.probe, self.ph_half = _survival_probe(z0, self.ph_half), None
        self.psi = np.zeros(1 << inst.n, dtype=np.complex128)
        self.psi[... if support is None else support] = amps

    def advance(self, steps: int, every: int = 0) -> list:
        """Advance psi by `steps` Trotter steps; psi enters and leaves in the
        z basis. The call owns one scratch state, which every transform
        shares. With every > 0 it returns the survival |<z0|psi>|^2 after
        every `every`-th step and after the last one. Between steps the
        state stays in the x basis, so a sample inside the call is
        |probe . phi|^2 with phi the x-basis state before the closing
        half-phase; the last sample reads psi[z0] after the call closes.
        Calls at fixed dt compose with no Trotter error: closing one call
        and opening the next costs a transform pair, so only rounding.
        """
        ph_cl, ph_full, probe, z0 = self.ph_cl, self.ph_full, self.probe, self.z0
        psi, spare = self.psi, np.empty_like(self.psi)
        samples = []

        def half():
            return self.ph_half if probe is None else _half_from_probe(probe, z0, spare)

        psi, spare = _fwht_swap(psi, spare)
        psi *= half()
        for k in range(1, steps + 1):
            psi, spare = _fwht_swap(psi, spare)
            psi *= ph_cl
            psi, spare = _fwht_swap(psi, spare)
            if every and k % every == 0 and k < steps:
                samples.append(float(abs(np.dot(probe, psi)) ** 2))
            psi *= ph_full if k < steps else half()
        psi, spare = _fwht_swap(psi, spare)
        psi *= 1.0 / psi.shape[0]
        self.psi = psi
        if every:
            samples.append(_z_probability(psi, z0))
        return samples

    def weight(self, z0: int) -> float:
        """transferred_weight of psi from the amplitudes it needs, without
        |psi|^2 over all 2^n states: on a glass that is 1 - |psi(z0)|^2.
        The slices keep numpy's array abs (see _z_probability)."""
        if isinstance(self.inst, ImpurityBandInstance):
            others = [z for z in self.inst.marked if z != z0]
            return float((np.abs(self.psi[others]) ** 2).sum())
        return 1.0 - _z_probability(self.psi, z0)

    def state(self) -> np.ndarray:
        """psi, after the phase tables are released; the last call."""
        del self.ph_cl, self.ph_half, self.ph_full, self.probe
        return self.psi


class _LevelPropagator:
    """Level coordinates of the uniform driver at step dt around a start
    state: psi = sum_j P_j sum_b W[j, b] |c_b>, with P_j the projector onto
    the x-basis states of popcount j and W an (n + 1) x M_c complex array.
    The centres c_b are the marked states in inst.marked order, then the
    ascending labels `unmarked` of the start's unmarked support. Both
    Trotter factors keep this form: the driver scales row j by its level
    phase, and the classical phase adds (e^{-i dt E_a} - 1) <m_a|psi> to
    column a of every row.

    <c_a|P_j|c_b> = 2^-n K_j(d(c_a, c_b)) with K the Krawtchouk table, so
    the centres' amplitudes cost one (n + 1) x (n + 1) product and an
    M_c x M_c gather (overlaps); the distances d(c_a, c_b) are kept only
    as that gather's flat indices. The start gives W directly:
    |c_b> = sum_j P_j |c_b>, so every row of W is amps on the centres.
    """

    def __init__(self, inst: ImpurityBandInstance, dt: float, amps: np.ndarray,
                 support, unmarked, z0=None):
        n = self.n = inst.n
        self.marked_count = inst.M
        self.centres = np.array([*inst.marked, *unmarked], dtype=np.uint64)
        m = len(self.centres)
        self.kraw = krawtchouk_table(n) / (1 << n)
        self._kraw_t = np.ascontiguousarray(self.kraw.T)
        self._gather = hamming_table(self.centres) * m + np.arange(m)
        # e^{-i dt E_a} - 1 per centre (0 for an unmarked one), and the
        # level phases of e^{-i H_D dt/2} and e^{-i H_D dt} as columns
        hx, _ = driver_terms(inst)
        energy = hx[0] * (n - 2.0 * np.arange(n + 1)[:, None])
        self.half = np.exp(-0.5j * dt * energy)
        self.full = np.exp(-1j * dt * energy)
        self.ph_marked = np.zeros(m, dtype=np.complex128)
        self.ph_marked[:inst.M] = np.expm1(-1j * dt * (inst.base_energy + inst.eps))
        start = dict(zip(np.asarray(support).tolist(), np.asarray(amps).tolist()))
        self.W = np.empty((n + 1, m), dtype=np.complex128)
        self.W[:] = [start.get(c, 0.0) for c in self.centres.tolist()]
        if z0 is not None:
            # <z0|psi> = vdot(p, W): p_end for W of psi itself, p_mid for W
            # of e^{-i H_D dt/2} psi, whose level phases it undoes
            p_end = self.kraw[:, np.bitwise_count(self.centres ^ np.uint64(z0))]
            self.probes = (p_end, p_end * self.half)

    def advance(self, steps: int, every: int = 0) -> list:
        """Advance W by `steps` Trotter steps, in place: the half phases
        first, then [classical, full] per step, closing the last step with
        the half phases instead of the full ones. With every > 0 it returns
        the survival after every `every`-th step and after the last one:
        inside the call W holds e^{-i H_D dt/2} psi_k, which probes[1]
        reads, and at its end probes[0]. Calls at fixed dt compose with no
        Trotter error, up to the rounding of half * half against full.
        """
        W, half, full, ph_marked = self.W, self.half, self.full, self.ph_marked
        samples = []
        W *= half
        for k in range(1, steps + 1):
            W += ph_marked * self.overlaps(W)
            W *= half if k == steps else full
            if every and (k % every == 0 or k == steps):
                samples.append(float(abs(np.vdot(self.probes[k < steps], W)) ** 2))
        return samples

    def weight(self, z0: int) -> float:
        """Weight on the marked states other than z0."""
        amp = self.overlaps(self.W)[:self.marked_count]
        others = self.centres[:self.marked_count] != z0
        return float(np.sum(np.abs(amp[others]) ** 2))

    def state(self) -> np.ndarray:
        """The 2^n state, formed after the gather table is released; the
        last call."""
        del self._gather
        return self.amplitudes(self.W)

    def overlaps(self, W: np.ndarray) -> np.ndarray:
        """<c_a|psi> for every centre: sum_b g[d(c_a, c_b), b] with
        g = K^T W / 2^n, one real product on W's float64 view."""
        g = (self._kraw_t @ W.view(np.float64)).view(np.complex128)
        return np.take(g, self._gather).sum(axis=1)

    def amplitudes(self, W: np.ndarray) -> np.ndarray:
        """The 2^n state, psi = 2^-n F phi with F the unnormalized
        Walsh-Hadamard transform (one _fwht) and phi from _x_amplitudes."""
        psi = _fwht(self._x_amplitudes(W).reshape(-1))
        psi *= 1.0 / (1 << self.n)
        return psi

    def _x_amplitudes(self, W: np.ndarray) -> np.ndarray:
        """phi(x) = sum_b W[|x|, b] (-1)^{x.c_b}, as a (2^(n-h), 2^h) array
        of high bits xh by low bits xl, h = n // 2.

        For each high popcount p, the rows |xh| = p of phi are S_p @ T_p,
        with S_p[xh, b] = (-1)^{xh.ch_b} and T_p[b, xl] = W[p + |xl|, b]
        (-1)^{xl.cl_b}: one real product on T_p's float64 view per p, into
        one reused buffer.
        """
        n, h = self.n, self.n // 2
        lo = np.arange(1 << h, dtype=np.uint64)
        hi = np.arange(1 << (n - h), dtype=np.uint64)
        pop_lo, pop_hi = np.bitwise_count(lo), np.bitwise_count(hi)
        sign_lo = _parity_signs(self.centres & lo[-1], lo).astype(np.complex128)
        c_hi = self.centres >> np.uint64(h)
        W_t = np.ascontiguousarray(W.T)
        groups = np.split(np.argsort(pop_hi, kind="stable"),
                          np.cumsum(np.bincount(pop_hi))[:-1])
        phi = np.empty((len(hi), len(lo)), dtype=np.complex128)
        buf = np.empty((max(map(len, groups)), len(lo)), dtype=np.complex128)
        for p, rows in enumerate(groups):
            T = np.take(W_t, p + pop_lo, axis=1)
            T *= sign_lo
            out = buf[:len(rows)]
            np.matmul(_parity_signs(hi[rows], c_hi), T.view(np.float64),
                      out=out.view(np.float64))
            phi[rows] = out
        return phi


def _propagator(inst, dt: float, amps: np.ndarray, z0=None, support=None):
    """The Trotter propagator of one run on inst at step dt from the start
    amps, which it leaves unchanged: over all 2^n states, or amps[k] on the
    ascending labels support[k]. With z0 given it samples |<z0|psi>|^2.

    An impurity band runs in level coordinates (_LevelPropagator) when its
    start has M_c^2 <= 2^n centres, the marked states plus the unmarked
    support: past that, the M_c x M_c gather table outgrows the state. Of
    2^n amps the nonzero ones are counted before any label is listed, so a
    dense start costs one pass over the state. Every other run, a glass
    included, takes the FWHT path (_FwhtPropagator).
    """
    if support is None and np.count_nonzero(amps) ** 2 <= len(amps):
        support = np.flatnonzero(amps)
        amps = amps[support]
    if support is not None and isinstance(inst, ImpurityBandInstance):
        unmarked = np.setdiff1d(support, inst.marked, assume_unique=True)
        if (inst.M + len(unmarked)) ** 2 <= 1 << inst.n:
            return _LevelPropagator(inst, dt, amps, support, unmarked, z0)
    return _FwhtPropagator(inst, dt, amps, support, z0)


def evolve_trotter(state: StateVector, inst, config: EvolutionConfig) -> StateVector:
    """Symmetric product-formula propagation of `state` under inst's
    Hamiltonian: e^{-i H_D dt/2} e^{-i H_cl dt} e^{-i H_D dt/2} per step,
    by the propagator _propagator picks. Neither backend changes the input,
    and the level path never copies it.
    """
    if inst.n != state.n:
        raise ValueError("state and instance sizes differ")
    if inst.n > TROTTER_MAX_N:
        raise ValueError(f"Trotter backend capped at n = {TROTTER_MAX_N}")
    if abs(state.norm() - 1.0) > NORM_TOL:
        raise ValueError("input state is not normalized")
    if config.total_time is None:
        raise ValueError("evolve_trotter needs an explicit total_time")
    T = float(config.total_time)
    if T == 0.0:
        return StateVector(state.amplitudes.copy(), state.n)
    steps = config.resolve_steps(T)
    prop = _propagator(inst, T / steps, state.amplitudes)
    prop.advance(steps)
    return StateVector(prop.state(), state.n)


def dense_hamiltonian(inst) -> np.ndarray:
    """Full 2^n x 2^n real symmetric matrix of H_cl + H_D."""
    n = inst.n
    if n > DENSE_MAX_N:
        raise ValueError(f"dense backend capped at n = {DENSE_MAX_N}")
    N = 1 << n
    idx = np.arange(N)
    H = np.zeros((N, N))
    H[idx, idx] = all_classical_energies(inst)
    hx, Jx = driver_terms(inst)
    for i in range(n):
        H[idx, idx ^ (1 << i)] += hx[i]
    if Jx is not None:
        for i in range(n):
            for j in range(i + 1, n):
                H[idx, idx ^ (1 << i) ^ (1 << j)] += Jx[i, j]
    return H


def exact_eigs(inst):
    """Dense eigendecomposition; eigenvalues ascending, eigenvectors in columns."""
    vals, vecs = np.linalg.eigh(dense_hamiltonian(inst))
    return vals, vecs


def spectral_blocks(vals: np.ndarray, weights: np.ndarray, times):
    """Yield (t_block, S_block) over `times`, _TIME_BLOCK times at a time, with
    S_block[k] = |sum_gamma w_gamma e^{-i E_gamma t_block[k]}|^2 for the
    eigenvalues E_gamma and real weights w_gamma; (M, L) weights give (B, L)
    blocks. The phases are formed as a cosine and a sine so that both
    products stay real."""
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    for lo in range(0, len(t_arr), _TIME_BLOCK):
        t = t_arr[lo:lo + _TIME_BLOCK]
        phases = np.outer(t, vals)
        re, im = np.cos(phases) @ weights, np.sin(phases) @ weights
        yield t, re ** 2 + im ** 2


def spectral_propagation(vals: np.ndarray, weights: np.ndarray, times) -> np.ndarray:
    """|sum_gamma w_gamma e^{-i E_gamma t}|^2 at each of `times`, given the
    eigenvalues E_gamma and real weights w_gamma; (M, L) weights give L
    curves as a (T, L) array, filled from spectral_blocks."""
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(t_arr.shape + weights.shape[1:])
    lo = 0
    for t, surv in spectral_blocks(vals, weights, t_arr):
        out[lo:lo + len(t)] = surv
        lo += len(t)
    return out


def transition_probability(eigs, z0: int, z: int, t):
    """P(t, z | z0) = |sum_gamma <z|psi_gamma><psi_gamma|z0> e^{-i E_gamma t}|^2."""
    vals, vecs = eigs
    P = spectral_propagation(vals, vecs[z] * vecs[z0], t)
    return float(P[0]) if np.ndim(t) == 0 else P


def transition_distribution(eigs, z0: int, t: float) -> np.ndarray:
    """Full output distribution P(t, . | z0) in one matrix-vector product."""
    vals, vecs = eigs
    c = vecs[z0] * np.exp(-1j * vals * t)
    return np.abs(vecs @ c) ** 2


@dataclass
class PTResult:
    """Outcome of one transfer run: exact output distribution plus traces."""

    n: int
    z0: int
    total_time: float
    probabilities: np.ndarray
    times: np.ndarray
    survival: np.ndarray
    energy_edges: np.ndarray
    energy_hist: np.ndarray
    hamming_hist: np.ndarray
    transferred_weight: float
    saturated: bool | None = None
    ladder_times: list = field(default_factory=list)
    ladder_weights: list = field(default_factory=list)


def transferred_weight(inst, z0: int, probabilities: np.ndarray) -> float:
    """Weight moved out of |z0>: onto the other marked states for the
    impurity band, onto everything else for generic instances."""
    if isinstance(inst, ImpurityBandInstance):
        others = [z for z in inst.marked if z != z0]
        return float(probabilities[others].sum())
    return float(1.0 - probabilities[z0])


def run_pt_protocol(inst, z0: int, config: EvolutionConfig | None = None,
                    on_rung=None) -> PTResult:
    """Prepare |z0>, switch the driver on at constant strength, evolve, measure.

    The evolution is the symmetric product formula of evolve_trotter, and
    the diabatic ramps are idealized as instantaneous. With
    config.total_time = None the run doubles its length until the
    transferred weight is stationary at the configured tolerance (the
    saturation criterion is a relative change below saturation_rtol over
    one doubling of t); otherwise it runs for exactly total_time. After
    each rung of that ladder, on_rung (if given) is called with the total
    time, the transferred weight and its relative change (None on the
    first rung). A rung of `steps` steps records the survival every
    max(1, steps // (_TRACE_POINTS - 1))-th step and at its end.

    The run holds one propagator (_propagator), advances it one call per
    rung and reads each rung's weight from it. After the last rung the
    propagator releases its tables and forms the 2^n state once, and the
    last survival sample is read from that state, as P(z0) is.
    """
    config = config or EvolutionConfig()
    n = inst.n
    z0 = check_bitstring(z0, n)
    if n > TROTTER_MAX_N:
        raise ValueError(f"Trotter backend capped at n = {TROTTER_MAX_N}")
    E = all_classical_energies(inst)

    ladder = config.total_time is None
    if ladder:
        dt = config.dt if config.dt is not None else 0.05
        seg_steps = max(1, int(round(config.start_time / dt)))
    else:
        steps = config.resolve_steps(config.total_time)
        dt = config.total_time / steps if steps else 0.0

    times = [0.0]
    survival = [1.0]
    ladder_times: list = []
    ladder_weights: list = []
    saturated: bool | None = None

    if not ladder and (config.total_time == 0.0 or dt == 0.0):
        probs = np.abs(StateVector.basis_state(n, z0).amplitudes) ** 2
        total_t = 0.0
    else:
        prop = _propagator(inst, dt, np.ones(1), z0, support=[z0])

        def advance(n_steps, t_base):
            # one call per rung, sampled every `rec` steps and at its end
            rec = max(1, n_steps // (_TRACE_POINTS - 1))
            survival.extend(prop.advance(n_steps, every=rec))
            done = [*range(rec, n_steps, rec), n_steps]
            times.extend(t_base + k * dt for k in done)

        if ladder:
            # the first rung runs start_time, each later one doubles the total
            total_steps, saturated, w_prev = 0, False, None
            for _ in range(config.max_doublings + 1):
                rung = total_steps or seg_steps
                advance(rung, total_steps * dt)
                total_steps += rung
                w_new = prop.weight(z0)
                ladder_times.append(total_steps * dt)
                ladder_weights.append(w_new)
                change = None if w_prev is None else abs(w_new - w_prev)
                if on_rung is not None:
                    on_rung(total_steps * dt, w_new, change and change / max(w_new, 1e-12))
                if change is not None and change <= config.saturation_rtol * max(w_new, 1e-12):
                    saturated = True
                    break
                w_prev = w_new
            total_t = total_steps * dt
        else:
            advance(steps, 0.0)
            total_t = config.total_time
        psi = prop.state()
        survival[-1] = _z_probability(psi, z0)
        probs = np.abs(psi) ** 2

    edges = np.histogram_bin_edges(E, bins=64)
    e_hist, _ = np.histogram(E, bins=edges, weights=probs)
    return PTResult(
        n=n, z0=z0, total_time=float(total_t), probabilities=probs,
        times=np.asarray(times), survival=np.asarray(survival),
        energy_edges=edges, energy_hist=e_hist,
        hamming_hist=hamming_histogram_from(z0, probs, n),
        transferred_weight=transferred_weight(inst, z0, probs),
        saturated=saturated, ladder_times=ladder_times,
        ladder_weights=ladder_weights,
    )


def sample_output(result: PTResult, shots: int, seed: int = 0) -> np.ndarray:
    """Draw measurement outcomes (basis-state labels) from the exact distribution."""
    rng = np.random.default_rng(seed)
    p = result.probabilities / result.probabilities.sum()
    return rng.choice(len(p), size=shots, p=p)
