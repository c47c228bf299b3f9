"""Exact quantum dynamics: Trotter evolution and dense diagonalization.

The Hamiltonian is H = H_cl + H_D with H_cl diagonal in the computational
basis and H_D diagonal in the x basis, so evolution alternates between the
two bases via a fast Walsh-Hadamard transform. The transform is blocked: it
applies a 16 x 16 Hadamard block to 4 index bits per matrix product, with
one scratch state. A transfer run advances each rung of its time ladder as
one Trotter segment and reads the survival trace inside it, in the x basis
for the symmetric splitting, without closing the splitting per sample.
Two drivers are supported:

* uniform transverse field, H_D = -B_perp * sum_i sigma^x_i;
* matched driver for the spin glass,
  H_D = driver_scale * [sum_i (|h_i|+1) sigma^x_i
                        + sum_{i<j} (|J_ij|+1) sigma^x_i sigma^x_j].

A dense eigensolver backend covers small systems for cross-checks and for
spectral formulas that need the full eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bits import check_bitstring, check_n, index_array
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

# Sylvester Hadamard block H_4, (-1)^{popcount(i & j)}; its top-left
# 2^k x 2^k corner is H_k
_HADAMARD_BITS = 4
_HADAMARD = 1.0 - 2.0 * (
    np.bitwise_count(np.arange(16)[:, None] & np.arange(16)) & 1)
# the same block acting on the (re, im) pairs of a complex state's float view
_HADAMARD_PAIRS = np.kron(_HADAMARD, np.eye(2))


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

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(other.amplitudes, self.amplitudes))


@dataclass
class EvolutionConfig:
    """Time grid and splitting choices for the Trotter backend.

    With total_time set, trotter_steps (default 300) fixes dt; passing dt
    instead derives the step count. With total_time = None the transfer
    protocol runs a doubling ladder starting at start_time and stops when
    the transferred weight changes by less than saturation_rtol over one
    doubling of t.
    """

    total_time: float | None = None
    trotter_steps: int | None = None
    dt: float | None = None
    splitting: str = "symmetric"
    driver: str = "auto"
    start_time: float = 1.0
    saturation_rtol: float = 0.01
    max_doublings: int = 16
    trace_points: int = 257

    def __post_init__(self):
        if self.splitting not in ("symmetric", "first"):
            raise ValueError("splitting must be 'symmetric' or 'first'")
        if self.driver not in ("auto", "uniform", "matched"):
            raise ValueError("driver must be 'auto', 'uniform' or 'matched'")
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


def driver_terms(inst, driver: str = "auto"):
    """Per-flip driver coefficients (hx, Jx); Jx is None for one-body drivers."""
    if isinstance(inst, ImpurityBandInstance):
        if driver == "matched":
            raise ValueError("matched driver needs a spin-glass instance")
        return np.full(inst.n, -inst.B_perp), None
    if isinstance(inst, SpinGlassInstance):
        if driver == "uniform":
            raise ValueError("uniform driver needs an impurity-band instance")
        return inst.driver_coefficients()
    raise TypeError(f"not an instance: {type(inst)!r}")


def driver_x_diagonal(inst, driver: str = "auto") -> np.ndarray:
    """Eigenvalues of H_D over the x basis, ordered by x-basis label."""
    hx, Jx = driver_terms(inst, driver)
    n = inst.n
    if Jx is None:
        pop = np.bitwise_count(index_array(n)).astype(np.int64)
        return hx[0] * (n - 2.0 * pop)
    return pair_energies(hx, Jx, index_array(n))


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform (matrix entries +-1) of a
    contiguous complex128 vector of length 2^n.

    Works on the float64 view of `a`, 4 index bits per np.matmul pass with
    the 16 x 16 Sylvester block; when 4 does not divide n the last pass uses
    the block's 2^k x 2^k corner, which is H_k. The lowest pass multiplies
    (re, im) pairs from the right by H_4 (x) I_2, so it is one matrix
    product rather than one per 16-element group. Passes alternate between
    `a` and one scratch buffer, so the extra memory is one state. The
    transform is returned; it may live in `a`'s buffer or in the scratch,
    and `a` is overwritten either way, so call it as `psi = _fwht(psi)`.
    """
    n = a.shape[0].bit_length() - 1
    src = a.view(np.float64)
    dst = np.empty_like(src)
    for lo in range(0, n, _HADAMARD_BITS):
        K = 1 << min(_HADAMARD_BITS, n - lo)
        if lo == 0:
            np.matmul(src.reshape(-1, 2 * K), _HADAMARD_PAIRS[:2 * K, :2 * K],
                      out=dst.reshape(-1, 2 * K))
        else:
            np.matmul(_HADAMARD[:K, :K], src.reshape(-1, K, 2 << lo),
                      out=dst.reshape(-1, K, 2 << lo))
        src, dst = dst, src
    return src.view(np.complex128)


def _survival_probe(n: int, z0: int, ph_half: np.ndarray) -> np.ndarray:
    """r with <z0|psi> = r . phi for the x-basis state phi of the symmetric
    splitting before its closing half-phase: r = (-1)^{x.z0} ph_half / N."""
    sign = 1.0 - 2.0 * (np.bitwise_count(index_array(n) & np.uint64(z0)) & 1)
    return sign * ph_half / (1 << n)


def _trotter_segment(psi, ph_cl, ph_half, ph_full, steps, splitting,
                     every=0, z0=0, probe=None):
    """Advance by `steps` Trotter steps; psi enters and leaves in the z basis.

    ph_cl carries the 1/N of the two unnormalized transforms of each step
    (see _phase_tables). Returns (psi, samples): with every > 0, samples
    holds the survival |<z0|psi>|^2 after every `every`-th step and after
    the last one. The "first" splitting is in the z basis between steps
    and reads psi[z0]. The symmetric one stays in the x basis between
    steps, so a sample inside the segment is |probe . phi|^2 with phi the
    x-basis state before the closing half-phase and probe from
    _survival_probe; the last sample reads psi[z0] after the segment
    closes. Segments at fixed dt compose exactly.
    """
    samples = []
    if splitting == "first":
        for k in range(1, steps + 1):
            psi *= ph_cl
            psi = _fwht(psi)
            psi *= ph_full
            psi = _fwht(psi)
            if every and (k % every == 0 or k == steps):
                samples.append(float(abs(psi[z0]) ** 2))
        return psi, samples
    psi = _fwht(psi)
    psi *= ph_half
    for k in range(1, steps + 1):
        psi = _fwht(psi)
        psi *= ph_cl
        psi = _fwht(psi)
        if every and k % every == 0 and k < steps:
            samples.append(float(abs(np.dot(probe, psi)) ** 2))
        psi *= ph_full if k < steps else ph_half
    psi = _fwht(psi)
    psi *= 1.0 / psi.shape[0]
    if every:
        samples.append(float(abs(psi[z0]) ** 2))
    return psi, samples


def _phase_tables(E, Dx, dt):
    """Phase tables of one step; ph_cl includes the 1/N of the transforms
    (a power of two, so the scaling is exact)."""
    ph_cl = np.exp(-1j * dt * E)
    ph_cl *= 1.0 / ph_cl.shape[0]
    ph_half = np.exp(-0.5j * dt * Dx)
    return ph_cl, ph_half, ph_half * ph_half


def evolve_trotter(state: StateVector, inst, config: EvolutionConfig) -> StateVector:
    """Product-formula propagation of `state` under inst's Hamiltonian.

    The symmetric splitting applies
    e^{-i H_D dt/2} e^{-i H_cl dt} e^{-i H_D dt/2} per step; the "first"
    mode applies the plain product (e^{-i H_D dt} e^{-i H_cl dt})^steps.
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
    psi = state.amplitudes.copy()
    if T == 0.0:
        return StateVector(psi, state.n)
    steps = config.resolve_steps(T)
    dt = T / steps
    E = all_classical_energies(inst)
    Dx = driver_x_diagonal(inst, config.driver)
    ph_cl, ph_half, ph_full = _phase_tables(E, Dx, dt)
    psi, _ = _trotter_segment(psi, ph_cl, ph_half, ph_full, steps,
                              config.splitting)
    return StateVector(psi, state.n)


def dense_hamiltonian(inst, driver: str = "auto") -> np.ndarray:
    """Full 2^n x 2^n real symmetric matrix of H_cl + H_D."""
    n = inst.n
    if n > DENSE_MAX_N:
        raise ValueError(f"dense backend capped at n = {DENSE_MAX_N}")
    N = 1 << n
    idx = np.arange(N)
    H = np.zeros((N, N))
    H[idx, idx] = all_classical_energies(inst)
    hx, Jx = driver_terms(inst, driver)
    for i in range(n):
        H[idx, idx ^ (1 << i)] += hx[i]
    if Jx is not None:
        for i in range(n):
            for j in range(i + 1, n):
                H[idx, idx ^ (1 << i) ^ (1 << j)] += Jx[i, j]
    return H


def exact_eigs(inst, driver: str = "auto", B_perp: float | None = None):
    """Dense eigendecomposition; eigenvalues ascending, eigenvectors in columns."""
    if B_perp is not None:
        if not isinstance(inst, ImpurityBandInstance):
            raise ValueError("B_perp override applies to impurity-band instances")
        inst = replace(inst, B_perp=B_perp)
    H = dense_hamiltonian(inst, driver)
    vals, vecs = np.linalg.eigh(H)
    return vals, vecs


def spectral_propagation(vals: np.ndarray, weights: np.ndarray, times) -> np.ndarray:
    """|sum_gamma w_gamma e^{-i E_gamma t}|^2 at each of `times`, given the
    eigenvalues E_gamma and real weights w_gamma; (M, L) weights give L
    curves as a (T, L) array. The phases are formed _TIME_BLOCK times at a
    time, as a cosine and a sine so that both products stay real."""
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(t_arr.shape + weights.shape[1:])
    for lo in range(0, len(t_arr), _TIME_BLOCK):
        phases = np.outer(t_arr[lo:lo + _TIME_BLOCK], vals)
        re, im = np.cos(phases) @ weights, np.sin(phases) @ weights
        out[lo:lo + _TIME_BLOCK] = re ** 2 + im ** 2
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


def survival_probability(eigs, z0: int, times):
    """psi^2(z0, t) = |sum_gamma |<psi_gamma|z0>|^2 e^{-i E_gamma t}|^2."""
    return transition_probability(eigs, z0, z0, times)


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

    The diabatic ramps are idealized as instantaneous. With
    config.total_time = None the run doubles its length until the
    transferred weight is stationary at the configured tolerance (the
    saturation criterion is a relative change below saturation_rtol over
    one doubling of t); otherwise it runs for exactly total_time. After
    each rung of that ladder, on_rung (if given) is called with the total
    time, the transferred weight and its relative change (None on the
    first rung).
    """
    config = config or EvolutionConfig()
    n = inst.n
    z0 = check_bitstring(z0, n)
    if n > TROTTER_MAX_N:
        raise ValueError(f"Trotter backend capped at n = {TROTTER_MAX_N}")
    E = all_classical_energies(inst)
    Dx = driver_x_diagonal(inst, config.driver)
    psi = StateVector.basis_state(n, z0).amplitudes

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
        probs = np.abs(psi) ** 2
        total_t = 0.0
    else:
        ph_cl, ph_half, ph_full = _phase_tables(E, Dx, dt)
        probe = (_survival_probe(n, z0, ph_half)
                 if config.splitting == "symmetric" else None)

        def advance(n_steps, t_base):
            # one segment per rung, sampled every `rec` steps and at its end
            nonlocal psi
            rec = max(1, n_steps // max(1, config.trace_points - 1))
            psi, samples = _trotter_segment(psi, ph_cl, ph_half, ph_full,
                                            n_steps, config.splitting,
                                            every=rec, z0=z0, probe=probe)
            done = [*range(rec, n_steps, rec), n_steps]
            times.extend(t_base + k * dt for k in done)
            survival.extend(samples)

        if ladder:
            # the first rung runs start_time, each later one doubles the total
            total_steps, saturated, w_prev = 0, False, None
            for _ in range(config.max_doublings + 1):
                rung = total_steps or seg_steps
                advance(rung, total_steps * dt)
                total_steps += rung
                w_new = transferred_weight(inst, z0, np.abs(psi) ** 2)
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
