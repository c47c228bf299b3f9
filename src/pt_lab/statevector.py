"""Exact quantum dynamics: band propagation, Trotter evolution of a spin
glass, and dense diagonalization.

The Hamiltonian is H = H_cl + H_D with H_cl diagonal in the computational
basis. Two drivers are supported:

* uniform transverse field, H_D = -B_perp * sum_i sigma^x_i, for the
  impurity band;
* matched driver for the spin glass,
  H_D = driver_scale * [sum_i (|h_i|+1) sigma^x_i
                        + sum_{i<j} (|J_ij|+1) sigma^x_i sigma^x_j].

A start has one form: its amplitudes amps[k] on the ascending labels
support[k], so a basis state |z0> is [1] on [z0] and a dense start lists
all 2^n labels. A run holds one propagator, chosen once from the instance
and the start (_propagator). Its backends share three methods:
advance(steps, every) advances the state by steps * dt and returns the
survival samples, weight(z0) reads the transferred weight, and state()
releases the backend's tables and forms the 2^n output once.

An impurity band evolves exactly: each sampled segment is one Chebyshev
expansion of e^{-iHt} (_chebyshev; Tal-Ezer and Kosloff, J. Chem. Phys. 81,
3967 (1984)), so dt sets only its sampling grid. Only the M marked states
carry classical energy e_a, so the spectrum lies in
[-B_perp n + min(0, min e), B_perp n + max(0, max e)]. One rule picks the
matrix-vector product the expansion runs on:

* a start with M_c^2 <= 2^n centres (the marked states plus the unmarked
  labels the start occupies) runs in level coordinates (_LevelPropagator).
  The uniform driver has n + 1 levels (x-basis popcount j, energy
  -B_perp (n - 2j)), so span{P_j |c_b>} over the levels j and the centres
  c_b is invariant under H. A product costs O(n^2 M_c + M_c^2) and builds
  no 2^n table;
* every other band start applies H to the 2^n state (_DenseBandPropagator):
  the driver through two fast Walsh-Hadamard transforms, the classical part
  on the M marked labels. The expansion holds five 2^n complex arrays.

A spin glass takes one product formula, the symmetric (Strang) splitting
e^{-i H_D dt/2} e^{-i H_cl dt} e^{-i H_D dt/2} per step, whose error is
second order in dt (_FwhtPropagator). The driver is diagonal in the x
basis, so a step alternates between the two bases via a fast Walsh-Hadamard
transform, blocked as one 16 x 16 matrix product per 4 index bits with one
scratch state. It holds five 2^n complex arrays at most: the state, the
scratch and three phase tables.

evolve_trotter and the transfer protocol (run_pt_protocol) run the same
backend-free path on either. A transfer run advances each rung of its time
ladder in one call and reads the survival trace inside it.

A dense eigensolver backend (exact_eigs) covers small systems for
cross-checks; the transition curves over its eigenbasis come from the
kernel in pt_lab.spectral, which this module does not import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import (check_bitstring, hamming_histogram_from, hamming_table,
                   index_array, krawtchouk_table)
from .instances import (
    ImpurityBandInstance,
    SpinGlassInstance,
    all_classical_energies,
    pair_energies,
)

TROTTER_MAX_N = 24
DENSE_MAX_N = 14
NORM_TOL = 1e-8
# survival samples per ladder rung, give or take (see run_pt_protocol)
_TRACE_POINTS = 257
# largest half-width * time of one Chebyshev expansion; a longer segment is
# split into equal pieces, which bounds the coefficient FFT at 2^17 points
_MAX_TAU = 16384.0

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
class EvolutionConfig:
    """Time grid of a run: the Trotter step of a spin glass, only the
    sampling grid of an impurity band, which evolves exactly (see the module
    docstring).

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
        if self.dt is not None:
            span = self.start_time if self.total_time is None else self.total_time
            if not np.isfinite(span / self.dt):
                raise ValueError(f"dt = {self.dt} is too small: {span} / dt "
                                 "steps is not a finite count")

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


def _relabel(a: np.ndarray, z: int, scratch: np.ndarray) -> np.ndarray:
    """a[x] <- a[x ^ z] over the 2^n labels of a, in a's own buffer, with
    scratch (an array of a's shape and dtype) overwritten: over the
    (2^(n-h), 2^h) reshape, h = n // 2, one gather of rows by the high bits
    of z and one of columns by its low bits. mode="clip" (the indices are
    in range) lets np.take write into `out` unbuffered."""
    h = (a.shape[0].bit_length() - 1) // 2
    rows, tmp = a.reshape(-1, 1 << h), scratch.reshape(-1, 1 << h)
    np.take(rows, np.arange(len(rows)) ^ (z >> h), 0, tmp, "clip")
    np.take(tmp, np.arange(1 << h) ^ (z & ((1 << h) - 1)), 1, rows, "clip")
    return a


def _z_probability(psi: np.ndarray, z: int) -> float:
    """|psi[z]|^2 read through a 1-element slice: numpy's array abs, the one
    np.abs(psi) ** 2 uses, whose bits can differ from the scalar abs."""
    return float((np.abs(psi[z:z + 1]) ** 2)[0])


def _check_time(t: float, bound: float):
    """Refuse a run to time t over a spectrum inside [-bound, bound] once
    bound * t reaches 2^52, where doubles lie 1 radian apart and no digit
    of e^{-i lambda t} is right."""
    if t * bound >= 2.0 ** 52:
        raise ValueError(f"time t = {t:g} is out of range: the spectrum "
                         f"reaches +-{bound:.6g}, so its phases pass 2^52")


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
    """The spin glass's Trotter path at step dt in the frame of the sampled
    label z0 (frame 0 when none is given): run label x is instance label
    x ^ z0. The driver has only sigma^x terms and commutes with every bit
    flip, so only ph_cl, of the three 2^n phase tables from _phase_tables,
    is relabelled, once. ph_cl carries the 1/N of the two unnormalized
    transforms of each step. The 2^n state psi starts as amps on support.
    """

    def __init__(self, inst, dt: float, amps: np.ndarray, support, z0=None):
        # module globals, looked up per run, so a wrapper bound in their
        # place (perfbench's tracer, a test's monkeypatch) sees the call
        E, Dx = all_classical_energies(inst), driver_x_diagonal(inst)
        self.bound = float(max(E.max(), -E.min()) + max(Dx.max(), -Dx.min()))
        _check_time(dt, self.bound)
        self.ph_cl, self.ph_half, self.ph_full = _phase_tables(E, Dx, dt)
        self.frame = z0 or 0
        self.psi = np.empty(1 << inst.n, dtype=np.complex128)
        _relabel(self.ph_cl, self.frame, self.psi)  # the state as scratch
        self.psi.fill(0.0)
        self.psi[np.asarray(support) ^ self.frame] = amps

    def advance(self, steps: int, every: int = 0) -> list:
        """Advance psi by `steps` Trotter steps; psi enters and leaves in the
        z basis. The call owns one scratch state, which every transform
        shares. With every > 0 it returns the survival of run label 0 after
        every `every`-th step and after the last one. Between steps the
        state stays in the x basis, where label 0's transform row is all
        ones: a sample inside the call is |ph_half . phi|^2 / N^2 with phi
        the x-basis state before the closing half-phase; the last one reads
        psi[0] after the call closes. Calls at fixed dt compose with no
        Trotter error: closing one call and opening the next costs a
        transform pair, so only rounding.
        """
        ph_cl, ph_half, ph_full = self.ph_cl, self.ph_half, self.ph_full
        psi, spare = self.psi, np.empty_like(self.psi)
        N = psi.shape[0]
        samples = []
        psi, spare = _fwht_swap(psi, spare)
        psi *= ph_half
        for k in range(1, steps + 1):
            psi, spare = _fwht_swap(psi, spare)
            psi *= ph_cl
            psi, spare = _fwht_swap(psi, spare)
            if every and k % every == 0 and k < steps:
                samples.append(float(abs(np.dot(ph_half, psi)) / N) ** 2)
            psi *= ph_full if k < steps else ph_half
        psi, spare = _fwht_swap(psi, spare)
        psi *= 1.0 / N
        self.psi = psi
        if every:
            samples.append(_z_probability(psi, 0))
        return samples

    def weight(self, z0: int) -> float:
        """transferred_weight of psi, 1 - |psi(z0)|^2, without |psi|^2 over
        all 2^n states (the slice keeps numpy's array abs, see
        _z_probability)."""
        return 1.0 - _z_probability(self.psi, z0 ^ self.frame)

    def state(self) -> np.ndarray:
        """psi in the instance's labels, relabelled through ph_full's buffer
        before the phase tables are released; the last call."""
        _relabel(self.psi, self.frame, self.ph_full)
        del self.ph_cl, self.ph_half, self.ph_full
        return self.psi


def _chebyshev_coefficients(t: float, centre: float, half: float) -> np.ndarray:
    """Coefficients a_k of e^{-iHt} = sum_k a_k T_k((H - centre) / half) for
    a spectrum inside [centre - half, centre + half]: with tau = half * t,
    a_0 = J_0(tau) and a_k = 2 (-i)^k J_k(tau), all times e^{-i centre t}.

    By the Jacobi-Anger expansion, (-i)^k J_k(tau) are the Fourier
    coefficients of e^{-i tau cos(theta)}, so one FFT over L >= 4 tau + 64
    equispaced angles gives them, with aliased terms J_{L-k}(tau),
    L - k > 3 tau, far below rounding. The series stops at the first k
    past tau where |a_k| < 1e-15: J_k(tau) falls faster than geometrically
    there, and the FFT's own rounding sits near 1e-16.
    """
    tau = half * t
    size = 1 << int(np.ceil(np.log2(4.0 * tau + 64.0)))
    theta = np.arange(size) * (2.0 * np.pi / size)
    g = np.fft.fft(np.exp(-1j * tau * np.cos(theta)))[:size // 2]
    g *= 2.0 / size
    g[0] *= 0.5
    k0 = int(tau)
    stop = k0 + int(np.argmax(np.abs(g[k0:]) < 1e-15))
    return np.exp(-1j * centre * t) * g[:stop]


def _chebyshev(matvec, x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(A) x, T_k the Chebyshev polynomials, by the
    recurrence T_{k+1}(A) x = 2 A T_k(A) x - T_{k-1}(A) x.

    matvec(v, w, spare) writes 2 A v - w into w's buffer and returns it; it
    may overwrite the two arrays of x's shape in spare. x's own buffer holds
    T_0 and is then overwritten, so call it as x = _chebyshev(matvec, x,
    coef). The recurrence holds five arrays of x's shape: x, T_1, the sum
    and spare.
    """
    spare = np.empty_like(x), np.empty_like(x)
    y = x * coef[0]
    prev, cur = None, x
    for c in coef[1:]:
        if prev is None:  # T_1 = A T_0 = (2 A T_0 - 0) / 2
            nxt = matvec(cur, np.zeros_like(x), spare)
            nxt *= 0.5
        else:
            nxt = matvec(cur, prev, spare)
        prev, cur = cur, nxt
        y += np.multiply(cur, c, out=spare[0])
    return y


class _BandPropagator:
    """An impurity band evolved exactly: each segment that advance samples
    is one Chebyshev expansion of e^{-iHt} (_chebyshev), with its
    coefficients computed once per segment length, so dt sets only the
    sampling grid. A subclass holds the state x in its own coordinates and
    gives its product (matvec, 2 A x - w with A = (H - centre) / half), the
    survival and the marked amplitudes.

    energies are the classical energies the product adds, so the spectrum
    lies in [-B_perp n + min(0, min e), B_perp n + max(0, max e)]; a
    zero-width interval is widened to half-width 1.
    """

    def __init__(self, inst: ImpurityBandInstance, dt: float, energies):
        self.dt, self.marked = dt, np.asarray(inst.marked)
        drive = abs(inst.B_perp) * inst.n
        lo = -drive + min(0.0, float(np.min(energies)))
        hi = drive + max(0.0, float(np.max(energies)))
        self.centre, self.half = (hi + lo) / 2, (hi - lo) / 2 or 1.0
        self.bound = max(-lo, hi)
        self._expansions = {}

    def _expansion(self, steps: int):
        """(pieces, coefficients) of a segment of `steps` steps: pieces
        equal expansions, each at most _MAX_TAU in half-width * time."""
        if steps not in self._expansions:
            t = steps * self.dt
            pieces = max(1, int(np.ceil(self.half * t / _MAX_TAU)))
            self._expansions[steps] = pieces, _chebyshev_coefficients(
                t / pieces, self.centre, self.half)
        return self._expansions[steps]

    def advance(self, steps: int, every: int = 0) -> list:
        """Advance x by steps * dt, one expansion per segment of `every`
        steps (one for the whole call when every = 0) and a shorter last
        one. With every > 0 it returns the survival after each segment.
        Calls compose: the same segments give the same arithmetic.
        """
        samples, done = [], 0
        while done < steps:
            seg = min(every or steps, steps - done)
            pieces, coef = self._expansion(seg)
            for _ in range(pieces):
                self.x = _chebyshev(self.matvec, self.x, coef)
            done += seg
            if every:
                samples.append(self.survival())
        return samples

    def weight(self, z0: int) -> float:
        """Weight on the marked states other than z0."""
        amp = self.marked_amplitudes()[self.marked != z0]
        return float((np.abs(amp) ** 2).sum())


class _LevelPropagator(_BandPropagator):
    """Level coordinates of the uniform driver around a start state:
    psi = sum_j P_j sum_b x[j, b] |c_b>, with P_j the projector onto the
    x-basis states of popcount j and x an (n + 1) x M_c complex array.
    The centres c_b are the marked states in inst.marked order, then the
    ascending labels `unmarked` of the start's unmarked support.

    H keeps this form, lifted to (L x)[j, b] = eps_j x[j, b]
    + e_b <c_b|psi> with eps_j = -B_perp (n - 2j) the level energies and e_b
    the centre's classical energy (0 if unmarked). <c_a|P_j|c_b> =
    2^-n K_j(d(c_a, c_b)) with K the Krawtchouk table, so the centres'
    amplitudes cost one (n + 1) x (n + 1) product and an M_c x M_c gather
    (overlaps); the distances d(c_a, c_b) are kept only as that gather's
    flat indices. The start gives x directly: |c_b> = sum_j P_j |c_b>, so
    every row of x is amps on the centres.
    """

    def __init__(self, inst: ImpurityBandInstance, dt: float, amps: np.ndarray,
                 support, unmarked, z0=None):
        n = self.n = inst.n
        self.centres = np.array([*inst.marked, *unmarked], dtype=np.uint64)
        m = len(self.centres)
        self.kraw = krawtchouk_table(n) / (1 << n)
        self._kraw_t = np.ascontiguousarray(self.kraw.T)
        self._gather = hamming_table(self.centres) * m + np.arange(m)
        energy = np.zeros(m)
        energy[:inst.M] = inst.base_energy + inst.eps
        super().__init__(inst, dt, energy)
        # 2 A = 2 (L - centre) / half as a level column and a centre row
        hx, _ = driver_terms(inst)
        levels = hx[0] * (n - 2.0 * np.arange(n + 1)[:, None])
        self._level_scale = (2.0 / self.half) * (levels - self.centre)
        self._centre_scale = (2.0 / self.half) * energy
        start = dict(zip(np.asarray(support).tolist(), np.asarray(amps).tolist()))
        self.x = np.empty((n + 1, m), dtype=np.complex128)
        self.x[:] = [start.get(c, 0.0) for c in self.centres.tolist()]
        if z0 is not None:  # <z0|psi> = vdot(probe, x)
            self.probe = self.kraw[:, np.bitwise_count(self.centres ^ np.uint64(z0))]

    def matvec(self, v, w, spare):
        np.subtract(self._level_scale * v, w, out=w)
        w += self._centre_scale * self.overlaps(v)
        return w

    def survival(self) -> float:
        return float(abs(np.vdot(self.probe, self.x)) ** 2)

    def marked_amplitudes(self) -> np.ndarray:
        return self.overlaps(self.x)[:len(self.marked)]

    def state(self) -> np.ndarray:
        """The 2^n state, formed after the gather table is released; the
        last call."""
        del self._gather
        return self.amplitudes(self.x)

    def overlaps(self, W: np.ndarray) -> np.ndarray:
        """<c_a|psi> for every centre: sum_b g[d(c_a, c_b), b] with
        g = K^T W / 2^n, one real product on a float64 view.

        sum_j K_j(d) = 2^n [d = 0], so the part of W equal to its row 0
        contributes W[0, a] alone, and the product runs on W - W[0]. A
        column whose rows agree, a centre no field has moved, then adds
        exactly nothing to the other centres.
        """
        rest = W - W[0]
        g = (self._kraw_t @ rest.view(np.float64)).view(np.complex128)
        return W[0] + np.take(g, self._gather).sum(axis=1)

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


class _DenseBandPropagator(_BandPropagator):
    """A band start with more than 2^(n/2) centres, as the 2^n state x.
    Its product applies the driver as F (eps o F x) / N, with F the
    unnormalized Walsh-Hadamard transform (_fwht) and eps(x) =
    -B_perp (n - 2 |x|) the x-basis levels, and the classical part on the
    M marked labels. The levels are kept as a sum over the high and the low
    half of the index bits, so no 2^n table is built besides the state.
    """

    def __init__(self, inst: ImpurityBandInstance, dt: float, amps: np.ndarray,
                 support, z0=None):
        energy = inst.base_energy + inst.eps
        super().__init__(inst, dt, energy)
        n, h = inst.n, inst.n // 2
        hx, _ = driver_terms(inst)
        # 2 A = 2 (H - centre) / half, with the 1/N of the transform pair
        scale = 2.0 / (self.half * (1 << n))
        pop_hi = np.bitwise_count(np.arange(1 << (n - h)))
        pop_lo = np.bitwise_count(np.arange(1 << h))
        self._levels_hi = scale * (hx[0] * (n - h - 2.0 * pop_hi) - self.centre)
        self._levels_lo = scale * (hx[0] * (h - 2.0 * pop_lo))
        self._marked_scale = (2.0 / self.half) * energy
        self.z0 = z0
        self.x = np.zeros(1 << n, dtype=np.complex128)
        self.x[support] = amps

    def matvec(self, v, w, spare):
        f, free = spare
        np.copyto(f, v)
        f, free = _fwht_swap(f, free)
        rows = f.reshape(len(self._levels_hi), -1)
        tmp = free.reshape(rows.shape)
        np.multiply(rows, self._levels_hi[:, None], out=tmp)
        rows *= self._levels_lo
        rows += tmp
        f, free = _fwht_swap(f, free)
        np.subtract(f, w, out=w)
        w[self.marked] += self._marked_scale * v[self.marked]
        return w

    def survival(self) -> float:
        return _z_probability(self.x, self.z0)

    def marked_amplitudes(self) -> np.ndarray:
        return self.x[self.marked]

    def state(self) -> np.ndarray:
        """The state x; the last call."""
        return self.x


def _propagator(inst, dt: float, amps, support, z0=None):
    """The propagator of one run on inst at step dt from the start amps[k]
    on the ascending labels support[k], which it leaves unchanged. With z0
    given it samples |<z0|psi>|^2.

    An impurity band runs in level coordinates (_LevelPropagator) when its
    start has M_c^2 <= 2^n centres, the marked states plus the unmarked
    support: past that, the M_c x M_c gather table outgrows the state, and
    the band runs on the 2^n state (_DenseBandPropagator). A spin glass
    takes the Trotter path (_FwhtPropagator).
    """
    if isinstance(inst, ImpurityBandInstance):
        unmarked = np.setdiff1d(support, inst.marked, assume_unique=True)
        if (inst.M + len(unmarked)) ** 2 <= 1 << inst.n:
            return _LevelPropagator(inst, dt, amps, support, unmarked, z0)
        return _DenseBandPropagator(inst, dt, amps, support, z0)
    return _FwhtPropagator(inst, dt, amps, support, z0)


def evolve_trotter(inst, amps, support, config: EvolutionConfig) -> np.ndarray:
    """The 2^n state after propagating the start amps[k] on the ascending
    labels support[k] under inst's Hamiltonian for config.total_time, by the
    propagator _propagator picks: exactly on an impurity band (one Chebyshev
    expansion), by the symmetric product formula e^{-i H_D dt/2}
    e^{-i H_cl dt} e^{-i H_D dt/2} per step on a spin glass. Neither backend
    changes the input, and a time past _check_time's range is a ValueError.
    """
    amps, support = np.asarray(amps, dtype=np.complex128), np.asarray(support)
    if inst.n > TROTTER_MAX_N:
        raise ValueError(f"state-vector evolution capped at n = {TROTTER_MAX_N}")
    if amps.ndim != 1 or amps.shape != support.shape:
        raise ValueError("the start needs one amplitude per label")
    if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
        raise ValueError("the start is not normalized")
    if (support.dtype.kind not in "iu" or support[0] < 0
            or support[-1] >= 1 << inst.n or np.any(support[1:] <= support[:-1])):
        raise ValueError("start labels must be unique, ascending and in "
                         f"[0, 2^{inst.n})")
    if config.total_time is None:
        raise ValueError("evolve_trotter needs an explicit total_time")
    T = float(config.total_time)
    if T == 0.0:
        psi = np.zeros(1 << inst.n, dtype=np.complex128)
        psi[support] = amps
        return psi
    steps = config.resolve_steps(T)
    prop = _propagator(inst, T / steps, amps, support)
    _check_time(T, prop.bound)
    prop.advance(steps)
    return prop.state()


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

    The evolution is that of evolve_trotter (exact on a band, the symmetric
    product formula on a glass), and the diabatic ramps are idealized as
    instantaneous. With config.total_time = None the run doubles its length
    until the transferred weight is stationary at the configured tolerance
    (the saturation criterion is a relative change below saturation_rtol
    over one doubling of t); otherwise it runs for exactly total_time.
    After each rung of that ladder, on_rung (if given) is called with the
    total time, the transferred weight and its relative change (None on the
    first rung). A rung of `steps` steps records the survival every
    max(1, steps // (_TRACE_POINTS - 1))-th step and at its end.

    The run holds one propagator (_propagator) and advances it one call
    per rung, once the rung passes _check_time, and reads each rung's
    weight from it. After the last rung the propagator releases its tables
    and forms the 2^n state once; the last survival sample reads it, as
    P(z0) does.
    """
    config = config or EvolutionConfig()
    n = inst.n
    z0 = check_bitstring(z0, n)
    if n > TROTTER_MAX_N:
        raise ValueError(f"state-vector evolution capped at n = {TROTTER_MAX_N}")
    E = all_classical_energies(inst)

    ladder = config.total_time is None
    if ladder:
        dt = config.dt if config.dt is not None else 0.05
        seg_steps = max(1, int(round(config.start_time / dt)))
    else:
        steps = config.resolve_steps(config.total_time)
        dt = config.total_time / steps

    times = [0.0]
    survival = [1.0]
    ladder_times: list = []
    ladder_weights: list = []
    saturated: bool | None = None

    if not ladder and (config.total_time == 0.0 or dt == 0.0):
        probs = np.zeros(1 << n)
        probs[z0] = 1.0
        total_t = 0.0
    else:
        prop = _propagator(inst, dt, np.ones(1), [z0], z0)

        def advance(n_steps, t_base):
            # one call per rung, sampled every `rec` steps and at its end
            _check_time(t_base + n_steps * dt, prop.bound)
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
