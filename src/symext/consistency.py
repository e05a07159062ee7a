"""Reduction from heterogeneous overlapping marginals to one extension problem.

If states rho_AB1..rho_ABk are marginals of one global state, their average
has a k-symmetric extension (symmetrize the global state over the B
factors), so the extendability criteria apply to the average.  A-marginal
disagreement is already a definitive inconsistency and short-circuits the
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import (
    BOSONIC,
    SYMMETRIC,
    VIOLATED,
    CriterionVerdict,
    ExtensionProblem,
    _derived_flavor,
    _derived_min_pt_eigs,
    _ppt_verdict,
)
from .errors import LayoutError, ValidationError
from .families import A_MARGINAL_TOL, _a_marginal_spreads, _require_a_agreement
from .linalg import DensityMatrix, _ptrace_mat, _reduced_of, _require_bipartite, hermitize

MARGINAL_MISMATCH = "marginal-mismatch"


@dataclass(frozen=True)
class MarginalSet:
    """Two or more bipartite marginals sharing the A factor."""

    marginals: tuple[DensityMatrix, ...]

    def __init__(self, marginals):
        marginals = tuple(marginals)
        if len(marginals) < 2:
            raise ValidationError(f"need at least two marginals, got {len(marginals)}")
        dims = _require_bipartite(marginals[0])
        for rho in marginals[1:]:
            if rho.dims != dims:
                raise LayoutError(f"marginal layouts differ: {dims} vs {rho.dims}")
        object.__setattr__(self, "marginals", marginals)

    @property
    def k(self) -> int:
        return len(self.marginals)

    @property
    def dims(self) -> tuple[int, int]:
        return self.marginals[0].dims


def a_marginal_spread(ms: MarginalSet) -> float:
    """Largest pairwise trace distance between the A marginals."""
    return float(_a_spreads(ms)[0])


def _a_spreads(ms: MarginalSet) -> np.ndarray:
    """A set's A-marginal spread as an array of one, each A marginal reduced at its own marginal's tolerance."""
    a = np.concatenate([_reduced_of(rho, [0]) for rho in ms.marginals])
    return _a_marginal_spreads(a, np.arange(ms.k)[None])


def average_marginals(ms: MarginalSet) -> ExtensionProblem:
    """Average the marginals into an ExtensionProblem with k = number of marginals.

    Two-qubit pairs route to the bosonic flavor (the strictly stronger hat
    test applies there); everything else stays symmetric.  Raises
    MarginalMismatchError when the A marginals disagree beyond tolerance,
    which is already a proof of inconsistency.
    """
    _require_a_agreement(_a_spreads(ms))
    # a mean of validated states is exactly Hermitian and meets their largest tolerance up to rounding
    avg = DensityMatrix._proven(sum(rho.mat for rho in ms.marginals) / ms.k, ms.dims, max(r.tol for r in ms.marginals))
    return ExtensionProblem(avg, ms.k, _derived_flavor(ms.dims, ms.k, SYMMETRIC))


def _consistency_min_pt_eigs(mats, dims, idx: np.ndarray) -> np.ndarray:
    """Derived-state eigenvalue of :func:`consistency_verdict` for each row of an (N, k) index array into a table.

    The table holds validated states ``mats`` on layout ``dims``; the caller has checked that each row's A
    marginals agree.  The average of each row is a mean of valid states, so it is valid, and its A marginal
    is the mean of its members'.
    """
    k = idx.shape[1]
    avg = sum(mats[row] for row in idx.T) / k
    a = hermitize(_ptrace_mat(avg, dims, [0]))
    return _derived_min_pt_eigs(avg, a, k, _derived_flavor(dims, k, SYMMETRIC))


def consistency_verdict(ms: MarginalSet) -> CriterionVerdict:
    """Necessary-condition verdict for the joint consistency of the marginals.

    Violated proves no global state has these marginals.  The criterion
    field records which rule fired: ``marginal-mismatch``,
    ``averaging+hat``, or ``averaging+tilde``.
    """
    spreads = _a_spreads(ms)
    if spreads[0] > A_MARGINAL_TOL:
        return CriterionVerdict(VIOLATED, MARGINAL_MISMATCH, {"a_marginal_trace_distance": float(spreads[0])})
    mats = np.array([rho.mat for rho in ms.marginals])
    pt_lo = _consistency_min_pt_eigs(mats, ms.dims, np.arange(ms.k)[None])  # one row naming every marginal
    rule = "averaging+hat" if _derived_flavor(ms.dims, ms.k, SYMMETRIC) == BOSONIC else "averaging+tilde"
    return _ppt_verdict(float(pt_lo[0]), ms.dims, rule, k=float(ms.k))


def werner_pentagon(psi1: float, psi2: float) -> bool:
    """Closed form of the two-qubit Werner-pair consistency criterion: psi1 + psi2 >= -1."""
    for psi in (psi1, psi2):
        if not -1.0 <= psi <= 1.0:
            raise ValidationError(f"parameters must lie in [-1, 1], got {psi}")
    return psi1 + psi2 >= -1.0
