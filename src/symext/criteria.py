"""Extendability criteria built from derived states.

A state with a k-symmetric extension has a separable tilde state
``(d_B rho_A x I + k rho) / (d_B^2 + k)``; a state with a k-bosonic
extension has a separable hat state ``(rho_A x I + k rho) / (d_B + k)``.
Testing the derived state with the partial-transpose criterion therefore
gives a necessary condition for extendability whose cost does not grow
with k.  ``Violated`` means non-extendability is proven; ``Inconclusive``
means the necessary condition passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ValidationError
from .linalg import (
    DensityMatrix,
    _check_extension_layout,
    _checked_int,
    _occupation_isometry,
    _ptrace_mat,
    _ptranspose_mat,
    _reduced_of,
    _require_bipartite,
    _require_symmetric_support,
    hermitize,
    partial_transpose,
    trace_norm,
)

VIOLATED = "Violated"
INCONCLUSIVE = "Inconclusive"

SYMMETRIC = "symmetric"
BOSONIC = "bosonic"

# Eigenvalue threshold for claiming a violation; anything within the band
# counts as numerical noise and reports Inconclusive with a boundary flag.
PPT_VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class ExtensionProblem:
    """A bipartite marginal together with the extension count and flavor."""

    marginal: DensityMatrix
    k: int
    flavor: str = SYMMETRIC

    def __post_init__(self):
        _require_bipartite(self.marginal)
        object.__setattr__(self, "k", _checked_int(self.k, "extension count", 1))
        if self.flavor not in (SYMMETRIC, BOSONIC):
            raise ValidationError(f"flavor must be '{SYMMETRIC}' or '{BOSONIC}', got {self.flavor!r}")


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a necessary-condition test plus its numeric witness."""

    status: str
    criterion: str
    witness: Mapping[str, float] = field(default_factory=dict)


class DefinettiGap(NamedTuple):
    gap: float
    bound: float


def _lift(scale, mats: np.ndarray, c, reduced: np.ndarray, d_b: int) -> np.ndarray:
    """scale * mats + c * (reduced x I_B) of one matrix or a stack, adding c * reduced into each diagonal block."""
    out = scale * mats
    add = c * reduced
    for j in range(d_b):
        out[..., j::d_b, j::d_b] += add
    return out


def _derived_mats(mats: np.ndarray, a: np.ndarray, k: int, flavor: str) -> np.ndarray:
    """Tilde (symmetric) or hat (bosonic) matrices of a stack of validated bipartite states, valid by construction.

    a holds the states' A marginals, proven valid or validated by
    :func:`_reduced_stack`; d_B is the ratio of the two sides.
    As positive mixtures of rho and rho_A x I, both are exactly Hermitian with
    trace Tr rho, and rho, rho_A >= -10 tol give lambda_min >= -10 tol times
    (k + d_B) / (k + d_B^2) (tilde) or (k + 1) / (k + d_B) (hat).  Rounding can
    cross a bound without margin, |Tr rho - 1| = tol or PSD at d_B = 1, by an ulp.
    """
    d_b = mats.shape[-1] // a.shape[-1]
    c = d_b if flavor == SYMMETRIC else 1
    return _lift(k, mats, c, a, d_b) / (c * d_b + k)


def _derived_state(rho_ab: DensityMatrix, k: int, flavor: str) -> DensityMatrix:
    _require_bipartite(rho_ab)
    k = _checked_int(k, "extension count", 1)
    mat = _derived_mats(rho_ab.mat[None], _reduced_of(rho_ab, [0]), k, flavor)[0]
    return DensityMatrix._proven(mat, rho_ab.dims, rho_ab.tol)  # valid by the proof in _derived_mats


def tilde_state(rho_ab: DensityMatrix, k: int) -> DensityMatrix:
    """Derived state whose separability is necessary for a k-symmetric extension."""
    return _derived_state(rho_ab, k, SYMMETRIC)


def hat_state(rho_ab: DensityMatrix, k: int) -> DensityMatrix:
    """Derived state whose separability is necessary for a k-bosonic extension."""
    return _derived_state(rho_ab, k, BOSONIC)


def generalized_coefficients(k: int, d: int, r: int) -> np.ndarray:
    """Mixing weights p_0..p_r of the multi-factor hat construction.

    p_s = C(k, s) C(d + r - 1, r - s) / C(d + k + r - 1, r); they sum to one.
    """
    k, d, r = _checked_int(k, "k", 1), _checked_int(d, "d", 2), _checked_int(r, "r", 1)
    if k < r:
        raise ValidationError(f"need k >= r, got k={k}, r={r}")
    denom = math.comb(d + k + r - 1, r)
    return np.array([math.comb(k, s) * math.comb(d + r - 1, r - s) / denom for s in range(r + 1)])


def generalized_hat(rho: DensityMatrix, k: int) -> DensityMatrix:
    """Multi-factor hat state for a marginal on A and r equal B factors.

    Each term embeds the marginal on A,B_1..B_s into all r B factors with
    identities, compresses with the symmetric projector, and rescales by the
    symmetric-subspace dimension ratio; the terms are mixed with the weights
    from :func:`generalized_coefficients`.  With r = 1 this reduces to
    :func:`hat_state`.  For r >= 2 the input must be supported on the
    symmetric subspace of its B factors (true of any marginal of a bosonic
    state, and required for the output to have unit trace).
    """
    dims = rho.dims
    d_a, d_b, r = _check_extension_layout(dims)
    weights = generalized_coefficients(k, d_b, r)
    # I_A x V compresses onto A x Sym^r(B); it is real, so its adjoint is its transpose
    iso = np.kron(np.eye(d_a), _occupation_isometry(d_b, r))
    if r >= 2:
        _require_symmetric_support(rho.mat, iso, "B factors are")
    d_r = math.comb(d_b + r - 1, r)
    m = iso.shape[1]
    comp = np.zeros((m, m), dtype=complex)
    for s in range(r + 1):
        marg = _ptrace_mat(rho.mat, dims, keep=range(s + 1))
        # V^T (marg x I) V, with V as (A B_1..B_s, B_{s+1}..B_r, column)
        t = iso.reshape(marg.shape[0], -1, m)
        compressed = np.tensordot(t, np.tensordot(marg, t, axes=(1, 0)), axes=([0, 1], [0, 1]))
        comp += weights[s] * (math.comb(d_b + s - 1, s) / d_r) * compressed
    acc = iso @ comp @ iso.T
    return DensityMatrix(hermitize(acc), dims, tol=rho.tol)


def _min_pt_eigs(mats: np.ndarray, dims, cut: int = 1) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose across ``cut`` of each matrix of a stack."""
    return np.linalg.eigvalsh(hermitize(_ptranspose_mat(mats, dims, cut)))[:, 0]


def _ppt_passes(lo):
    """Where the partial-transpose test reports Inconclusive, from the smallest eigenvalue(s)."""
    return lo >= -PPT_VIOLATION_TOL


def _derived_flavor(dims, k: int, flavor: str) -> str:
    """The derived state a verdict tests: hat for bosonic problems and for two-qubit k = 2, else tilde.

    A two-qubit 2-symmetric extension implies a 2-bosonic one, so the
    strictly stronger hat test applies there.
    """
    return BOSONIC if flavor == BOSONIC or (tuple(dims) == (2, 2) and k == 2) else SYMMETRIC


def _derived_min_pt_eigs(mats: np.ndarray, a: np.ndarray, k: int, flavor: str) -> np.ndarray:
    """Smallest partial-transpose eigenvalue of the tilde (symmetric) or hat (bosonic) state of each stacked state.

    a holds the states' A marginals, as for :func:`_derived_mats`.
    """
    d_a = a.shape[-1]
    return _min_pt_eigs(_derived_mats(mats, a, k, flavor), (d_a, mats.shape[-1] // d_a))


def _ppt_verdict(lo: float, dims, criterion: str, **extra: float) -> CriterionVerdict:
    """Partial-transpose verdict ``criterion`` from the smallest eigenvalue on ``dims``, with ``extra`` witness keys."""
    exact = tuple(sorted(dims)) in ((2, 2), (2, 3))  # the PPT test decides separability on these layouts
    witness = {"min_pt_eig": lo, "exact": 1.0 if exact else 0.0, **extra}
    if not _ppt_passes(lo):
        return CriterionVerdict(VIOLATED, criterion, witness)
    if abs(lo) < PPT_VIOLATION_TOL:
        witness["boundary"] = 1.0
    return CriterionVerdict(INCONCLUSIVE, criterion, witness)


def ppt_test(rho: DensityMatrix, cut: int = 1) -> CriterionVerdict:
    """Partial-transpose criterion across the given factor.

    Violated iff the minimal eigenvalue of the partial transpose falls below
    -1e-9; the witness records the eigenvalue.  For 2x2 and 2x3 layouts the
    test is exact (witness key ``exact`` is 1.0); elsewhere a pass is only a
    PPT relaxation.  Eigenvalues within the tolerance band report
    Inconclusive with a ``boundary`` flag.
    """
    return _ppt_verdict(float(np.linalg.eigvalsh(hermitize(partial_transpose(rho, cut)))[0]), rho.dims, "ppt")


def _derived_verdict(problem: ExtensionProblem) -> CriterionVerdict:
    rho, k = problem.marginal, problem.k
    flavor = _derived_flavor(rho.dims, k, problem.flavor)
    lo = float(_derived_min_pt_eigs(rho.mat[None], _reduced_of(rho, [0]), k, flavor)[0])
    return _ppt_verdict(lo, rho.dims, "hat-ppt" if flavor == BOSONIC else "tilde-ppt", k=float(k))


def symmetric_extension_verdict(problem: ExtensionProblem) -> CriterionVerdict:
    """Necessary-condition verdict for the k-symmetric extension problem.

    Violated proves there is no k-symmetric extension.  Two-qubit inputs with
    k = 2 route through the hat state, which is strictly stronger there
    because a two-qubit 2-symmetric extension implies a 2-bosonic one.
    """
    if problem.flavor != SYMMETRIC:
        raise ValidationError(f"expected a symmetric-flavor problem, got {problem.flavor!r}")
    return _derived_verdict(problem)


def bosonic_extension_verdict(problem: ExtensionProblem) -> CriterionVerdict:
    """Necessary-condition verdict for the k-bosonic extension problem."""
    if problem.flavor != BOSONIC:
        raise ValidationError(f"expected a bosonic-flavor problem, got {problem.flavor!r}")
    return _derived_verdict(problem)


def definetti_gap(rho_ab: DensityMatrix, k: int) -> DefinettiGap:
    """Trace-norm distance to the tilde state and its closed-form bound 2 d_B^2 / (d_B^2 + k).

    rho - tilde = d_B (d_B rho - rho_A x I) / (d_B^2 + k), so the gap is
    d_B ||d_B rho - rho_A x I||_1 / (d_B^2 + k): the gap and the bound both
    scale as 1/(d_B^2 + k), and their ratio does not depend on k.  The gap
    never exceeds the bound: highly extendable states sit close to a
    separable state.
    """
    _, d_b = _require_bipartite(rho_ab)
    k = _checked_int(k, "extension count", 1)
    gap = d_b * trace_norm(_lift(d_b, rho_ab.mat, -1, _reduced_of(rho_ab, [0])[0], d_b)) / (d_b**2 + k)
    return DefinettiGap(gap=gap, bound=2 * d_b**2 / (d_b**2 + k))


def sufficient_separability(sigma: DensityMatrix) -> bool:
    """True when (d_B + 1) sigma - sigma_A x I is PSD, which certifies separability."""
    _, d_b = _require_bipartite(sigma)
    m = _lift(d_b + 1, sigma.mat, -1, _reduced_of(sigma, [0])[0], d_b)
    return float(np.linalg.eigvalsh(hermitize(m))[0]) >= -PPT_VIOLATION_TOL
