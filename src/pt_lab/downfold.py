"""Effective marked-subspace Hamiltonian for the impurity-band model.

Away from resonances the transverse field only virtually visits the
unmarked states, so the dynamics inside the impurity band is captured by
an M x M matrix: strip energies on the diagonal, pairwise tunneling
amplitudes off the diagonal. The closed-form amplitude at Hamming
distance d is

    V(d) = sqrt(A) * n^(5/4) * exp(-n*theta(B)) / sqrt(C(n, d)),

with theta the inverse-field series and A a smooth prefactor taken as 1
by default. The squared amplitude ratio w = V^2(d)/V_typ^2 follows the
heavy-tailed law PDF(w) = 1/(w^2 sqrt(pi log w)) for large n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bits import hamming_table, krawtchouk_table

# a level Gram's eigenvalues below this fraction of its largest count as
# zero: over n <= 32 and M <= 100 its zero eigenvalues come out below 1e-14
# of the largest and its nonzero ones above 1e-6
_GRAM_RTOL = 1e-10

# theta's series, behind V(d) and V_typ, is asymptotic in large B_perp and
# applies above this field; below it theta still returns the truncated sum
THETA_MIN_B_PERP = 1.0

_PAIR_ATOL = 1e-9  # extract_numeric_elements' degeneracy tolerance on eps_1 - eps_2


@dataclass
class DownfoldedMatrix:
    """Real symmetric M x M effective Hamiltonian plus its build metadata."""

    matrix: np.ndarray
    V_typ: float
    W: float
    B_perp: float | None = None
    n: int | None = None
    shift: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be exactly symmetric")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        self.matrix = m

    @property
    def M(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of `matrix` from one np.linalg.eigh,
        computed on first access and kept. Both arrays are read-only because
        every caller shares them; `matrix` must not change after this is read.
        """
        vals, vecs = np.linalg.eigh(self.matrix)
        vals.flags.writeable = False
        vecs.flags.writeable = False
        return vals, vecs


def theta(B_perp: float) -> float:
    """Truncated inverse-field series 1/(4B^2) + 1/(24B^4) + 1/(60B^6).

    The series applies for B_perp > THETA_MIN_B_PERP; below it the sum is
    still returned, so sweeps can cross the boundary.
    """
    if B_perp <= 0:
        raise ValueError("B_perp must be positive")
    b2 = B_perp * B_perp
    return 1.0 / (4 * b2) + 1.0 / (24 * b2 ** 2) + 1.0 / (60 * b2 ** 3)


def _log_binomials(n: int) -> np.ndarray:
    """log C(n, d) for d = 0..n."""
    return np.array([math.lgamma(n + 1) - math.lgamma(d + 1) - math.lgamma(n - d + 1)
                     for d in range(n + 1)])


def amplitude_table(n: int, B_perp: float, calibration_A: float = 1.0) -> np.ndarray:
    """V(d) = sqrt(A) n^{5/4} e^{-n theta} / sqrt(C(n, d)) for d = 0..n, with
    A = calibration_A (1 is the unit prefactor), in logs, which avoid
    overflow (entry 0 unused, set to 0). The one home of V(d): V_typ is its
    entry at _reference_distance(n)."""
    th = theta(B_perp)
    if not (math.isfinite(calibration_A) and calibration_A > 0):
        raise ValueError("calibration A must be finite and > 0, "
                         f"got {calibration_A}")
    log_c = _log_binomials(n)
    tab = np.exp(0.5 * math.log(calibration_A) + 1.25 * math.log(n) - n * th - 0.5 * log_c)
    tab[0] = 0.0
    return tab


def _reference_distance(n: int) -> int:
    """The typical distance n // 2, raised to 1 for n = 1, where V(0) is
    undefined; V_typ and w below are both taken there."""
    return max(1, n // 2)


def build_downfolded(inst: ImpurityBandInstance, phase_mode: str = "random_sign",
                     calibration_A: float = 1.0, seed: int = 0) -> DownfoldedMatrix:
    """Assemble the M x M effective matrix for a concrete instance, at its
    own n and B_perp.

    Off-diagonal magnitudes are V(d_ij) with prefactor calibration_A; the
    unknown phase factor is drawn per phase_mode: independent signs
    (default) or sqrt(2) sin of a uniform phase. numeric_extraction
    instead projects the exact Hamiltonian onto its M impurity-band
    eigenstates, taken from marked_eigensystem, and keeps whatever
    diagonal that projection produces.
    """
    tab = amplitude_table(inst.n, inst.B_perp, calibration_A)
    if phase_mode not in ("random_sign", "random_phase", "numeric_extraction"):
        raise ValueError(
            "phase_mode must be random_sign, random_phase or numeric_extraction")
    M = inst.M
    if phase_mode == "numeric_extraction":
        mat = _numeric_downfold(inst)
        shift = float(np.mean(np.diag(mat) - inst.eps)) if M else 0.0
    else:
        rng = np.random.default_rng(seed)
        V = tab[hamming_table(inst.marked)]
        iu = np.triu_indices(M, 1)
        if phase_mode == "random_sign":
            phase = rng.choice(np.array([-1.0, 1.0]), size=len(iu[0]))
        else:
            phase = math.sqrt(2.0) * np.sin(rng.uniform(0.0, 2.0 * math.pi,
                                                        size=len(iu[0])))
        mat = np.zeros((M, M))
        mat[iu] = V[iu] * phase
        mat = mat + mat.T
        # second-order common shift of the marked levels; any common value
        # drops out of the intra-band dynamics
        shift = -inst.B_perp ** 2
        mat[np.diag_indices(M)] = inst.eps + shift
    return DownfoldedMatrix(matrix=mat, V_typ=float(tab[_reference_distance(inst.n)]),
                            W=inst.W, B_perp=inst.B_perp, n=inst.n, shift=shift)


def marked_eigensystem(inst: ImpurityBandInstance) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and marked components (M x D, one column per
    eigenstate, rows in `inst.marked` order) of every eigenstate of the
    impurity-band H that can carry marked weight; all other eigenstates
    have none.

    H is the uniform driver plus a diagonal term on the marked states only,
    so span{P_j |m_a>}, with P_j the projector onto driver level j
    (energy -B_perp (n - 2j)), is H-invariant and holds |m_a> = sum_j P_j |m_a>.
    Its level-j Gram is <m_a|P_j|m_b> = 2^-n K_j(d_ab); an orthonormal basis
    of each level comes from that Gram's eigenvectors Q_j with nonzero
    eigenvalues L_j, and has marked components B_j = Q_j L_j^(1/2). In the
    stacked basis B (M x D, D <= M (n+1)) H is
    diag(-B_perp (n - 2j)) + B^T diag(base_energy + eps) B, whose
    eigenvectors Y give marked components B Y.
    """
    n = inst.n
    dist = hamming_table(inst.marked)
    blocks, levels = [], []
    for j, K_j in enumerate(krawtchouk_table(n)):
        lam, Q = np.linalg.eigh(K_j[dist])
        keep = lam > _GRAM_RTOL * lam[-1]
        blocks.append(Q[:, keep] * np.sqrt(lam[keep] / 2.0 ** n))
        levels.append(np.full(int(keep.sum()), -inst.B_perp * (n - 2 * j)))
    B = np.hstack(blocks)
    marked_energy = inst.base_energy + inst.eps
    H = np.diag(np.concatenate(levels)) + B.T @ (marked_energy[:, None] * B)
    vals, Y = np.linalg.eigh(H)
    return vals, B @ Y


def _numeric_downfold(inst: ImpurityBandInstance) -> np.ndarray:
    """Orthogonalized projection of H onto its impurity-band eigenstates.

    The M eigenstates with the largest total marked weight define the
    band; their marked components come from marked_eigensystem, without
    forming the 2^n-dimensional H. Projecting onto the marked basis and
    symmetrically orthogonalizing yields an M x M matrix whose spectrum
    equals the band eigenvalues whenever the overlap matrix is well
    conditioned.
    """
    vals, amp = marked_eigensystem(inst)
    weight = (amp ** 2).sum(axis=0)
    sel = np.sort(np.argsort(weight)[-inst.M:])
    A = amp[:, sel]
    S = A @ A.T
    s_vals, s_vecs = np.linalg.eigh(S)
    if s_vals.min() < 1e-10:
        raise ValueError("band projection is ill-conditioned; marked states "
                         "hybridize too strongly with the bulk")
    S_inv_half = (s_vecs / np.sqrt(s_vals)) @ s_vecs.T
    H_eff = S_inv_half @ (A * vals[sel]) @ A.T @ S_inv_half
    H_eff = 0.5 * (H_eff + H_eff.T)
    # remove the common band offset so the diagonal reads eps + shift
    H_eff[np.diag_indices(inst.M)] -= inst.base_energy
    return H_eff


def pdf_w(w):
    """Density 1/(w^2 sqrt(pi log w)) of the squared amplitude ratio, w > 1."""
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr <= 1.0):
        raise ValueError("the density is supported on w > 1")
    out = 1.0 / (w_arr ** 2 * np.sqrt(np.pi * np.log(w_arr)))
    return float(out) if np.ndim(w) == 0 else out


def cdf_w(w):
    """CDF erf(sqrt(log w)); log w is Gamma(1/2, 1) distributed."""
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr < 1.0):
        raise ValueError("the law is supported on w >= 1")
    out = np.vectorize(math.erf, otypes=[float])(np.sqrt(np.log(w_arr)))
    return float(out) if np.ndim(w) == 0 else out


def sample_w(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Physical sampler: d ~ Binomial(n, 1/2) conditioned on d >= 1,
    w = V^2(d)/V^2(d_ref) in unit-prefactor mode, d_ref the reference
    distance (n // 2 for n >= 2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    d = rng.binomial(n, 0.5, size=count)
    while np.any(d < 1):
        redo = d < 1
        d[redo] = rng.binomial(n, 0.5, size=int(redo.sum()))
    # w = C(n, d_ref) / C(n, d), computed in logs
    log_c = _log_binomials(n)
    return np.exp(log_c[_reference_distance(n)] - log_c[d])


def extract_numeric_elements(inst: ImpurityBandInstance) -> float:
    """|V| between two degenerate marked states: the off-diagonal entry of
    the pair's band projection (_numeric_downfold), whose two eigenvalues
    split by 2|V|. Requires M = 2 and eps_1 = eps_2 within _PAIR_ATOL; a pair
    whose projection is ill-conditioned is a ValueError.
    """
    if inst.M != 2:
        raise ValueError("needs exactly two marked states")
    if abs(inst.eps[0] - inst.eps[1]) > _PAIR_ATOL:
        raise ValueError("marked energies must be degenerate for a resonant pair")
    return float(abs(_numeric_downfold(inst)[0, 1]))


def calibrate_prefactor(n: int, B_perp: float, distances, seed: int = 0) -> float:
    """Fit the d-independent prefactor A from resonant-pair numerics.

    For each requested distance a degenerate two-state instance is built
    (first state random, second at the given Hamming distance), the
    numeric |V| extracted, and A_d = (|V| / V_unit(d))^2 computed; the
    geometric mean over distances is returned. A pair whose band
    projection is ill-conditioned is a ValueError, as in
    extract_numeric_elements, and so is a distance outside [1, n].
    """
    from .instances import ImpurityBandInstance

    V = amplitude_table(n, B_perp)
    for d in distances:
        if not 1 <= d <= n:
            raise ValueError(f"need 1 <= d <= n, got d = {d}")
    rng = np.random.default_rng(seed)
    logs = []
    for d in distances:
        z1 = int(rng.integers(0, 1 << n))
        flip = rng.permutation(n)[:d]
        z2 = z1
        for b in flip:
            z2 ^= 1 << int(b)
        inst = ImpurityBandInstance(n=n, marked=(z1, z2), eps=np.zeros(2),
                                    W=1.0, B_perp=B_perp)
        v_num = extract_numeric_elements(inst)
        logs.append(2.0 * (math.log(v_num) - math.log(V[d])))
    return math.exp(float(np.mean(logs)))
