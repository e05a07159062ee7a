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
    _derived_ppt_passes,
    bosonic_extension_verdict,
    symmetric_extension_verdict,
)
from .errors import LayoutError, MarginalMismatchError, ValidationError
from .families import A_MARGINAL_TOL
from .linalg import DensityMatrix, _as_stack, _reduced_stack, _trace_distances, _validate_stack

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


def _average(mats):
    """Mean of equal-shape matrices or stacks, summed in order."""
    return sum(mats) / len(mats)


def _averaged_flavor(dims, k: int) -> str:
    """Two-qubit pairs test the strictly stronger hat state; everything else stays symmetric."""
    return BOSONIC if dims == (2, 2) and k == 2 else SYMMETRIC


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
    avg = _average([rho.mat for rho in ms.marginals])
    tol = max(rho.tol for rho in ms.marginals)
    return ExtensionProblem(DensityMatrix(avg, ms.dims, tol=tol), ms.k, _averaged_flavor(ms.dims, ms.k))


def _consistency_passes(stacks) -> np.ndarray:
    """Where :func:`consistency_verdict` is Inconclusive, row by row over stacks of one layout.

    Each stack is (validated states, layout, tolerance), as for
    :func:`_a_marginal_spreads`; rows whose A marginals disagree are
    Violated and build no average.
    """
    k = len(stacks)
    dims = stacks[0][1]
    tol = max(t for _, _, t in stacks)
    agree = _a_marginal_spreads(stacks) <= A_MARGINAL_TOL
    avg = _validate_stack(_average([mats[agree] for mats, _, _ in stacks]), tol)
    passes = np.zeros(len(agree), dtype=bool)
    flavor = _derived_flavor(dims, k, _averaged_flavor(dims, k))
    passes[agree] = _derived_ppt_passes(avg, dims, k, flavor, tol)
    return passes


def consistency_verdict(ms: MarginalSet) -> CriterionVerdict:
    """Necessary-condition verdict for the joint consistency of the marginals.

    Violated proves no global state has these marginals.  The criterion
    field records which rule fired: ``marginal-mismatch``,
    ``averaging+hat``, or ``averaging+tilde``.
    """
    try:
        problem = average_marginals(ms)
    except MarginalMismatchError as err:
        return CriterionVerdict(
            VIOLATED, MARGINAL_MISMATCH, {"a_marginal_trace_distance": err.trace_distance}
        )
    if problem.flavor == BOSONIC:
        inner = bosonic_extension_verdict(problem)
    else:
        inner = symmetric_extension_verdict(problem)
    rule = "averaging+hat" if inner.criterion == "hat-ppt" else "averaging+tilde"
    return CriterionVerdict(inner.status, rule, dict(inner.witness))


def werner_pentagon(psi1: float, psi2: float) -> bool:
    """Closed form of the two-qubit Werner-pair consistency criterion: psi1 + psi2 >= -1."""
    for psi in (psi1, psi2):
        if not -1.0 <= psi <= 1.0:
            raise ValidationError(f"parameters must lie in [-1, 1], got {psi}")
    return psi1 + psi2 >= -1.0
