"""Reduction from heterogeneous overlapping marginals to one extension problem.

If states rho_AB1..rho_ABk are marginals of one global state, their average
has a k-symmetric extension (symmetrize the global state over the B
factors), so the extendability criteria apply to the average.  A-marginal
disagreement is already a definitive inconsistency and short-circuits the
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
from .errors import LayoutError, MarginalMismatchError, ValidationError
from .families import A_MARGINAL_TOL
from .linalg import DensityMatrix, _as_stack, _reduced_stack, _trace_distances

MARGINAL_MISMATCH = "marginal-mismatch"


@dataclass(frozen=True)
class MarginalSet:
    """Two or more bipartite marginals sharing the A factor."""

    marginals: tuple[DensityMatrix, ...]

    def __init__(self, marginals):
        marginals = tuple(marginals)
        if len(marginals) < 2:
            raise ValidationError(f"need at least two marginals, got {len(marginals)}")
        dims = marginals[0].dims
        if len(dims) != 2:
            raise LayoutError(f"marginals must be bipartite, got layout {dims}")
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
    return float(_a_marginal_spreads([_as_stack(rho) for rho in ms.marginals])[0])


def _a_marginal_spreads(stacks) -> np.ndarray:
    """:func:`a_marginal_spread` row by row over stacks given as (validated states, layout, tolerance)."""
    reduced = [_reduced_stack(mats, dims, [0], tol) for mats, dims, tol in stacks]
    return np.max([_trace_distances(a, b) for a, b in combinations(reduced, 2)], axis=0)


def average_marginals(ms: MarginalSet) -> ExtensionProblem:
    """Average the marginals into an ExtensionProblem with k = number of marginals.

    Two-qubit pairs route to the bosonic flavor (the strictly stronger hat
    test applies there); everything else stays symmetric.  Raises
    MarginalMismatchError when the A marginals disagree beyond tolerance,
    which is already a proof of inconsistency.
    """
    spread = a_marginal_spread(ms)
    if spread > A_MARGINAL_TOL:
        raise MarginalMismatchError(f"A marginals differ: trace distance {spread:.3e}", spread)
    avg = sum(rho.mat for rho in ms.marginals) / ms.k
    tol = max(rho.tol for rho in ms.marginals)
    return ExtensionProblem(DensityMatrix(avg, ms.dims, tol=tol), ms.k, _derived_flavor(ms.dims, ms.k, SYMMETRIC))


def _consistency_min_pt_eigs(stacks) -> tuple[np.ndarray, np.ndarray]:
    """A-marginal spread and derived-state eigenvalue of :func:`consistency_verdict`, row by row over stacks.

    Stacks are given as for :func:`_a_marginal_spreads`.  Rows whose A
    marginals disagree build no average; their NaN eigenvalue reads as Violated.
    """
    k = len(stacks)
    dims = stacks[0][1]
    tol = max(t for _, _, t in stacks)
    spreads = _a_marginal_spreads(stacks)
    agree = spreads <= A_MARGINAL_TOL
    avg = sum(mats[agree] for mats, _, _ in stacks) / k  # a mean of validated states is valid
    lo = np.full(len(agree), np.nan)
    lo[agree] = _derived_min_pt_eigs(avg, dims, k, _derived_flavor(dims, k, SYMMETRIC), tol)
    return spreads, lo


def consistency_verdict(ms: MarginalSet) -> CriterionVerdict:
    """Necessary-condition verdict for the joint consistency of the marginals.

    Violated proves no global state has these marginals.  The criterion
    field records which rule fired: ``marginal-mismatch``,
    ``averaging+hat``, or ``averaging+tilde``.
    """
    spreads, lo = _consistency_min_pt_eigs([_as_stack(rho) for rho in ms.marginals])
    if spreads[0] > A_MARGINAL_TOL:
        return CriterionVerdict(VIOLATED, MARGINAL_MISMATCH, {"a_marginal_trace_distance": float(spreads[0])})
    rule = "averaging+hat" if _derived_flavor(ms.dims, ms.k, SYMMETRIC) == BOSONIC else "averaging+tilde"
    return _ppt_verdict(float(lo[0]), ms.dims, rule, k=float(ms.k))


def werner_pentagon(psi1: float, psi2: float) -> bool:
    """Closed form of the two-qubit Werner-pair consistency criterion: psi1 + psi2 >= -1."""
    for psi in (psi1, psi2):
        if not -1.0 <= psi <= 1.0:
            raise ValidationError(f"parameters must lie in [-1, 1], got {psi}")
    return psi1 + psi2 >= -1.0
