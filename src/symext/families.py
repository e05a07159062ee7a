"""Bell-diagonal and Werner state families with their closed-form criteria.

These families make every criterion in the package checkable by hand: the
derived states stay inside the family, so the PPT verdicts reduce to simple
parameter inequalities.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import LayoutError, MarginalMismatchError, ValidationError
from .linalg import (
    DensityMatrix,
    _checked_array,
    _checked_instance,
    _checked_int,
    _checked_real,
    _first,
    _reduced_entropies,
    _reduced_of,
    _require_bipartite,
    _require_work,
    _spectral_entropies,
    _trace_distances,
    permutation_operator,
)

# Bell basis columns: (|00>+|11>), (|00>-|11>), (|01>+|10>), (|01>-|10>), each /sqrt(2).
BELL_VECTORS = (
    np.array(
        [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, -1],
            [1, -1, 0, 0],
        ],
        dtype=complex,
    )
    / math.sqrt(2)
)

A_MARGINAL_TOL = 1e-8
SSA_SLACK = 1e-9
CKW_SLACK = 1e-9

_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def _check_bell_probs(p: Sequence[float]) -> np.ndarray:
    """Four Bell weights by the real rule, each in [0, 1] and summing to 1 within 1e-12; returned clipped to [0, 1]."""
    p = _checked_array(p, "probabilities", "iuf").astype(float)
    if p.shape != (4,):
        raise ValidationError(f"need four probabilities, got shape {p.shape}")
    clipped = np.clip(p, 0.0, 1.0)
    for w in np.where(np.abs(p - clipped) <= 1e-12, clipped, p).tolist():  # NaN stays NaN, and is refused
        _checked_real(w, "probabilities", 0.0, 1.0)
    if not abs(p.sum() - 1.0) <= 1e-12:
        raise ValidationError(f"probabilities must sum to 1, got sum {p.sum()!r}")
    return clipped


def _bell_mats(p: np.ndarray) -> np.ndarray:
    """Bell-diagonal matrices for checked (N, 4) weights, not yet validated as states."""
    return (BELL_VECTORS * p[:, None, :]) @ BELL_VECTORS.conj().T


def bell_state(p: Sequence[float]) -> DensityMatrix:
    """Mixture of the four Bell projectors with weights p."""
    return DensityMatrix(_bell_mats(_check_bell_probs(p)[None])[0], (2, 2))


def _bell_polytope_flags(p: np.ndarray) -> np.ndarray:
    return p.max(axis=1) <= 0.75


def _bell_exact_flags(p: np.ndarray) -> np.ndarray:
    return np.sum(p**2, axis=1) - 4 * np.sqrt(np.prod(p, axis=1)) <= 0.5


def _bell_ssa_flags(p: np.ndarray) -> np.ndarray:
    return _spectral_entropies(p) >= 1.0 - 1e-12


def bell_polytope_condition(p: Sequence[float]) -> bool:
    """Closed-form 2-extendability test from the hat state: max p_i <= 3/4."""
    return bool(_bell_polytope_flags(_check_bell_probs(p)[None])[0])


def bell_exact_2ext(p: Sequence[float]) -> bool:
    """Exact 2-symmetric extendability: 1/2 >= sum p_i^2 - 4 sqrt(p1 p2 p3 p4)."""
    return bool(_bell_exact_flags(_check_bell_probs(p)[None])[0])


def bell_ssa(p: Sequence[float]) -> bool:
    """Entropy form of strong subadditivity for Bell-diagonal pairs: H(p) >= 1 bit."""
    return bool(_bell_ssa_flags(_check_bell_probs(p)[None])[0])


def _werner_mats(d: int, psis: np.ndarray) -> np.ndarray:
    """Werner matrices for a checked d >= 2 and each checked parameter of a 1-D array, not yet validated as states."""
    swap = permutation_operator(d, 2, (1, 0))
    eye = np.eye(d * d, dtype=complex)
    sym = (eye + swap) / 2
    anti = (eye - swap) / 2
    psi = psis[:, None, None]
    return (1 + psi) / 2 * sym / (d * (d + 1) / 2) + (1 - psi) / 2 * anti / (d * (d - 1) / 2)


def werner_state(d: int, psi: float) -> DensityMatrix:
    """Two-qudit state invariant under U x U, parameterized by psi in [-1, 1].

    Mixes the normalized projectors onto the symmetric and antisymmetric
    subspaces with weights (1 + psi)/2 and (1 - psi)/2; separable (and PPT)
    exactly when psi >= 0.
    """
    d = _checked_int(d, "local dimension", 2)
    lg = 2 * math.log2(d)  # log2 of the side d^2, which one eigensolve validates
    _require_work("werner_state", 3 * lg, 4 + 2 * lg)
    psi = _checked_real(psi, "parameter", -1.0, 1.0)
    return DensityMatrix(_werner_mats(d, np.array([psi]))[0], (d, d))


def _werner_counts(d: int, k: int) -> tuple[int, int]:
    return _checked_int(d, "local dimension", 2), _checked_int(k, "extension count", 1)


def werner_tilde_psi(d: int, k: int, psi: float) -> float:
    """Parameter of the tilde state of a Werner state: (d + k psi) / (d^2 + k); either past the float range raises."""
    d, k = _werner_counts(d, k)
    psi = _checked_real(psi, "parameter", -math.inf, math.inf)
    denominator = _checked_real(d**2 + k, "tilde denominator d^2 + k", 1, math.inf)
    return _checked_real((d + k * psi) / denominator, "tilde parameter", -math.inf, math.inf)


def werner_hat_psi(d: int, k: int, psi: float) -> float:
    """Parameter of the hat state of a Werner state: (1 + k psi) / (d + k); either past the float range raises."""
    d, k = _werner_counts(d, k)
    psi = _checked_real(psi, "parameter", -math.inf, math.inf)
    denominator = _checked_real(d + k, "hat denominator d + k", 1, math.inf)
    return _checked_real((1 + k * psi) / denominator, "hat parameter", -math.inf, math.inf)


def werner_tilde_threshold(d: int, k: int) -> float:
    """Below -d/k the tilde criterion proves a Werner state has no k-symmetric extension."""
    d, k = _werner_counts(d, k)
    return -d / k


def werner_exact_threshold(d: int, k: int) -> float:
    """Known necessary and sufficient k-symmetric extendability threshold -(d-1)/k."""
    d, k = _werner_counts(d, k)
    return -(d - 1) / k


# the index array of one pair of states, the first two of a table
_PAIR = np.array([[0, 1]])


def _a_marginal_spreads(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Largest pairwise trace distance between the A marginals that each row of an (N, k) index array names in a."""
    pairs = combinations(range(idx.shape[1]), 2)
    return np.max([_trace_distances(a[idx[:, p]], a[idx[:, q]]) for p, q in pairs], axis=0)


def _require_a_agreement(spreads: np.ndarray) -> None:
    """Raise MarginalMismatchError for the first row whose A marginals differ by more than A_MARGINAL_TOL."""
    i = _first(spreads > A_MARGINAL_TOL)
    if i is not None:
        raise MarginalMismatchError(f"A marginals differ: trace distance {spreads[i]:.3e}", spreads[i])


def _ssa_flags(s: np.ndarray, s_b: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """:func:`ssa_check` row by row: S(AB) + S(AC) >= S(B) + S(C) for the (AB, AC) pairs an (N, 2) index array names.

    s and s_b hold S(rho) and S(rho_B) of each state of a table; the caller has
    checked the pairs' A marginals with :func:`_require_a_agreement`.
    """
    ab, ac = idx.T
    return s[ab] + s[ac] >= s_b[ab] + s_b[ac] - SSA_SLACK


def ssa_check(rho_ab: DensityMatrix, rho_ac: DensityMatrix) -> bool:
    """Entropy consistency test S(AB) + S(AC) >= S(B) + S(C) for a marginal pair.

    Both inputs must be bipartite with matching A marginals; a mismatch is
    already a proof of inconsistency and raises.
    """
    if _require_bipartite(rho_ab, "rho_ab")[0] != _require_bipartite(rho_ac, "rho_ac")[0]:
        raise LayoutError(f"A dimensions differ: {rho_ab.dims[0]} vs {rho_ac.dims[0]}")
    pair = (rho_ab, rho_ac)
    _require_a_agreement(_a_marginal_spreads(np.concatenate([_reduced_of(rho, [0]) for rho in pair]), _PAIR))
    s = np.array([_spectral_entropies(rho._spectrum) for rho in pair])
    s_b = np.concatenate([_reduced_entropies(rho.mat[None], rho.dims, [1], rho.tol, rho._min_eig) for rho in pair])
    return bool(_ssa_flags(s, s_b, _PAIR)[0])


def _concurrences(mats: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each two-qubit state of a stack."""
    m = mats @ _YY @ mats.conj() @ _YY
    lams = np.sqrt(np.clip(np.linalg.eigvals(m).real, 0.0, None))
    lams = np.sort(lams, axis=-1)[:, ::-1]
    return np.maximum(0.0, lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3])


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum.

    max{0, l1 - l2 - l3 - l4} with l_i the descending square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y).
    """
    return float(_concurrences(_checked_instance(rho, DensityMatrix, "state", (2, 2)).mat[None])[0])


def _ckw_holds(c_ab, c_ac, c_abc: float):
    return c_ab**2 + c_ac**2 <= c_abc**2 + CKW_SLACK


def ckw_check(rho_ab: DensityMatrix, rho_ac: DensityMatrix, c_abc: float) -> bool:
    """Monogamy test C_AB^2 + C_AC^2 <= C_A(BC)^2 with the global concurrence supplied.

    The caller provides c_abc (it equals 1 for the Werner-pair comparison);
    computing tripartite concurrences is out of scope here.
    """
    c_abc = _checked_real(c_abc, "global concurrence", 0.0, 1.0)
    return bool(_ckw_holds(wootters_concurrence(rho_ab), wootters_concurrence(rho_ac), c_abc))
