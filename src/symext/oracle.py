"""Numerical feasibility oracle for extension problems.

Decides k-symmetric / k-bosonic extendability at desk scale with
Dykstra-corrected projections between the PSD cone and the affine set of
permutation-invariant extension candidates with the prescribed marginal.
The inter-set gap converges to the distance between the two sets: it
vanishes exactly when an extension exists, so a stabilized positive gap
certifies infeasibility.

The iteration runs on isotypic blocks, not on the full space.  By
Schur-Weyl duality a permutation-invariant operator on A (x) B^(x)k is
X = sum_lambda I_{m_lambda} (x) M_lambda, with lambda a partition of k into
at most d_B rows, m_lambda its Specht dimension (the number of standard
Young tableaux of shape lambda) and M_lambda acting on one copy
C^{d_A} (x) V_lambda, embedded by an isometry.  Each block is stored as
sqrt(m_lambda) M_lambda: with that weighting the map from blocks to X is an
isometry, so Dykstra on the blocks is Dykstra on X, up to rounding, while
every eigensolve has the side of one block.  The bosonic flavor keeps the
single block lambda = (k) (the symmetric subspace, weight 1); the symmetric
flavor keeps every lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .criteria import BOSONIC, SYMMETRIC, ExtensionProblem
from .errors import LayoutError, ResourceLimitError, ValidationError
from .linalg import DIM_GUARD, DensityMatrix, _check_extension_layout, _occupation_isometry, _ptrace_mat, hermitize

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNDECIDED = "Undecided"

# Why an oracle run stopped.
STOP_FEASIBLE_GAP = "feasible-gap"  # the gap fell to tol_feasible
STOP_STABLE_GAP = "stable-gap"  # the gap stabilized at or above tol_gap
STOP_MAX_ITERS = "max-iters"  # the iteration budget ran out
STOP_FACE_REACH = "face-reach"  # the forced support face cannot reproduce the marginal
STOP_LINALG_ERROR = "linalg-error"  # eigh and the SVD fallback of project_psd both failed

# Infeasibility is declared once the gap has stopped moving: relative change
# below STABLE_RTOL across a window of STABLE_WINDOW iterations.
STABLE_WINDOW = 50
STABLE_RTOL = 1e-9

# Most (iteration, gap) points kept from a run's gap trajectory.
GAP_TRACE_POINTS = 64

# Relative singular-value cutoff of rank decisions: face null spaces and the
# Gram pseudoinverse, whose null directions carry rounding noise.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class OracleConfig:
    tol_feasible: float = 1e-7
    tol_gap: float = 1e-6
    max_iters: int = 5000
    dim_limit: int = 256

    def __post_init__(self):
        if min(self.tol_feasible, self.tol_gap, self.max_iters, self.dim_limit) <= 0:
            raise ValidationError("all oracle configuration values must be positive")
        if self.tol_feasible >= self.tol_gap:
            raise ValidationError(
                f"tol_feasible must be below tol_gap, got {self.tol_feasible} >= {self.tol_gap}"
            )


@dataclass(frozen=True)
class OracleResult:
    """Verdict of one oracle run.

    ``stop_reason`` is one of the ``STOP_*`` values, ``block_sides`` the sides
    of the blocks the iteration ran on, and ``gap_trace`` the inter-set gap
    as (iteration, gap) pairs, down-sampled to at most GAP_TRACE_POINTS and
    always ending with the last iteration.
    """

    status: str
    residual: float
    iterations: int
    certificate: Mapping[str, float] = field(default_factory=dict)
    stop_reason: str = STOP_MAX_ITERS
    block_sides: tuple[int, ...] = ()
    gap_trace: tuple[tuple[int, float], ...] = ()


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clip negative eigenvalues."""
    h = hermitize(np.asarray(m, dtype=complex))
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError:
        # the divide-and-conquer eigensolver can fail on highly degenerate
        # spectra; P+(M) = (M + |M|) / 2 with |M| = V S V^dag from M = U S V^dag
        _, s, vh = np.linalg.svd(h)
        return hermitize((h + (vh.conj().T * s) @ vh) / 2)
    return hermitize((v * np.maximum(w, 0.0)) @ v.conj().T)


def project_permutation_invariant(x: np.ndarray, dims) -> np.ndarray:
    """Group average over permutations of the B factors; an orthogonal projection.

    The k!-term average factors over cosets as the product, for j = 2..k, of
    (1/j)(id + sum_{i<j} Ad_(i j)); each transposition is an axis swap.
    """
    d_a, d_b, k = _check_extension_layout(dims)
    x = np.asarray(x, dtype=complex)
    dims = (d_a,) + (d_b,) * k
    t = x.reshape(dims + dims)
    for j in range(2, k + 1):
        acc = t.copy()
        for i in range(1, j):
            axes = list(range(2 * k + 2))
            axes[i], axes[j] = j, i
            axes[k + 1 + i], axes[k + 1 + j] = k + 1 + j, k + 1 + i
            acc += t.transpose(axes)
        t = acc / j
    return t.reshape(x.shape)


def project_marginal_affine(x: np.ndarray, dims, target: DensityMatrix) -> np.ndarray:
    """Orthogonal projection onto {X Hermitian : marginal on the first two factors = target}.

    Adds the deficit tensored with identity, divided by d_B^(k-1); the output
    trace is one because the correction carries exactly the trace deficit.
    """
    d_a, d_b, k = _check_extension_layout(dims)
    if target.dims != (d_a, d_b):
        raise LayoutError(f"target layout {target.dims} does not match extension layout {tuple(dims)}")
    x = np.asarray(x, dtype=complex)
    marg = _ptrace_mat(x, dims, keep=[0, 1])
    delta = (target.mat - marg) / d_b ** (k - 1)
    return x + np.kron(delta, np.eye(d_b ** (k - 1), dtype=complex))


def project_invariant_marginal(x: np.ndarray, dims, target: DensityMatrix) -> np.ndarray:
    """Exact orthogonal projection onto the intersection of the two affine sets.

    Symmetrize first, then apply the marginal correction solved within the
    permutation-invariant subspace: the corrector W satisfies the normal
    equations of the symmetrized marginal map, and its symmetrized placement
    restores the marginal without leaving the subspace.
    """
    d_a, d_b, k = _check_extension_layout(dims)
    if target.dims != (d_a, d_b):
        raise LayoutError(f"target layout {target.dims} does not match extension layout {tuple(dims)}")
    z = project_permutation_invariant(x, dims)
    v = target.mat - _ptrace_mat(z, dims, keep=[0, 1])
    v_a = _ptrace_mat(v, (d_a, d_b), keep=[0])
    w = (k / d_b ** (k - 1)) * v - ((k - 1) / d_b**k) * np.kron(v_a, np.eye(d_b, dtype=complex))
    placed = np.kron(w, np.eye(d_b ** (k - 1), dtype=complex))
    return z + project_permutation_invariant(placed, dims)


# --- isotypic blocks -----------------------------------------------------------


def _partitions(k: int, max_rows: int, largest: int | None = None):
    """Partitions of k into at most max_rows parts, (k) first."""
    if k == 0:
        yield ()
        return
    if max_rows == 0:
        return
    largest = k if largest is None else min(k, largest)
    for first in range(largest, 0, -1):
        for rest in _partitions(k - first, max_rows - 1, first):
            yield (first,) + rest


def _specht_dim(shape: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of the shape, by the hook length formula."""
    hooks = 1
    for r, row in enumerate(shape):
        for c in range(row):
            below = sum(1 for other in shape[r + 1 :] if other > c)
            hooks *= row - c + below
    return math.factorial(sum(shape)) // hooks


@lru_cache(maxsize=None)
def _weyl_isometry(d: int, shape: tuple[int, ...]) -> np.ndarray:
    """Isometry onto one copy of the GL(d) irrep of the shape inside (C^d)^(x)k.

    The copy is the joint eigenspace of the Jucys-Murphy elements
    J_j = sum_{i<j} (i j), j = 2..k, at the contents of the row-reading
    tableau; contents determine a standard tableau, so that eigenspace is
    exactly one copy.  The shape (k) is the symmetric subspace.
    """
    k = sum(shape)
    if len(shape) == 1:
        return _occupation_isometry(d, k)
    if d**k > DIM_GUARD:
        raise ResourceLimitError(f"isotypic basis on dimension {d**k} exceeds the guard {DIM_GUARD}")
    contents = [c - r for r, row in enumerate(shape) for c in range(row)]
    basis = np.eye(d**k)
    for j in range(1, k):
        t = basis.reshape((d,) * k + (-1,))
        jm = sum(np.swapaxes(t, i, j) for i in range(j)).reshape(d**k, -1)
        w, u = np.linalg.eigh(basis.T @ jm)
        basis = basis @ u[:, np.abs(w - contents[j]) < 0.5]  # the eigenvalues are integers
    basis.setflags(write=False)
    return basis


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for a complex vector v; a real a is not cast to complex."""
    if np.iscomplexobj(a):
        return a @ v
    return (a @ v.view(float).reshape(-1, 2)).view(complex).ravel()


def _rmatvec(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a^dag @ w for a complex vector w, without copying a."""
    return _matvec(a.T, w.conj()).conj()


@dataclass(frozen=True)
class _Blocks:
    """Weighted blocks of one extension layout and their marginal map.

    Block b holds N_b = sqrt(m_b) V_b^dag X V_b for the isometry V_b into
    A (x) B^(x)k; the iterate is the flat concatenation of the N_b.  amap maps
    it to the flattened AB marginal of X = sum_b sqrt(m_b) Sym(V_b N_b V_b^dag),
    and gpinv is the pseudoinverse of its Gram matrix amap amap^dag, so that
    amap^dag gpinv is the Moore-Penrose inverse of amap.  Both are real
    unless a face reduction made the isometries complex.
    """

    dims: tuple[int, ...]
    isos: tuple[np.ndarray, ...]
    weights: tuple[int, ...]
    amap: np.ndarray
    gpinv: np.ndarray

    @property
    def sides(self) -> tuple[int, ...]:
        return tuple(v.shape[1] for v in self.isos)

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        out, off = [], 0
        for s in self.sides:
            out.append(flat[off : off + s * s].reshape(s, s))
            off += s * s
        return out

    def marginal(self, flat: np.ndarray) -> np.ndarray:
        return _matvec(self.amap, flat)

    def correction(self, deficit: np.ndarray) -> np.ndarray:
        """Least-norm flat iterate whose marginal is deficit, when one exists: amap^+ deficit."""
        return _rmatvec(self.amap, _matvec(self.gpinv, deficit))

    def project_affine(self, flat: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the flat iterates whose marginal is target."""
        return flat + self.correction(target - self.marginal(flat))

    def placed_marginal(self, flat: np.ndarray) -> np.ndarray:
        """The AB marginal of X, contracted from the isometries instead of through amap.

        The AB_1 marginal of Sym(Y) is the average over i of the (A, B_i)
        marginal of Y, each one contraction of a placement of V_b with N_b.
        """
        n_ab, k = self.dims[0] * self.dims[1], len(self.dims) - 1
        out = np.zeros((n_ab, n_ab), dtype=complex)
        for v, m, blk in zip(self.isos, self.weights, self.split(flat)):
            for p in _placements(v, self.dims):
                out += math.sqrt(m) * np.tensordot(p @ blk, p.conj(), axes=([1, 2], [1, 2]))
        return out / k

    def min_eig(self, flat: np.ndarray) -> float:
        """Smallest eigenvalue of X on the span of the blocks; X vanishes outside it.

        On that span X is the direct sum of I_{m_b} (x) M_b, with M_b = N_b / sqrt(m_b).
        """
        blocks = zip(self.weights, self.split(flat))
        return min(float(np.linalg.eigvalsh(hermitize(blk))[0]) / math.sqrt(m) for m, blk in blocks)


def _placements(iso: np.ndarray, dims) -> list[np.ndarray]:
    """The isometry as (A B_i, the other B factors, column), for each i = 1..k."""
    s = iso.shape[1]
    t = iso.reshape(tuple(dims) + (s,))
    return [np.moveaxis(t, i, 1).reshape(dims[0] * dims[1], -1, s) for i in range(1, len(dims))]


def _make_blocks(dims, isos, weights) -> _Blocks:
    n_ab, k = dims[0] * dims[1], len(dims) - 1
    # amap^T, so that each block's columns of amap are one contiguous run
    amap_t = np.empty((sum(v.shape[1] ** 2 for v in isos), n_ab * n_ab), dtype=np.result_type(float, *isos))
    off = 0
    for v, m in zip(isos, weights):
        s = v.shape[1]
        # sum over i of the trace over the B factors other than B_i of V N V^dag
        u = np.concatenate(_placements(v, dims), axis=1).transpose(0, 2, 1).reshape(n_ab * s, -1)
        uu = (u @ u.conj().T).reshape(n_ab, s, n_ab, s)
        run = amap_t[off : off + s * s]
        run.reshape(s, s, n_ab, n_ab)[...] = uu.transpose(1, 3, 0, 2)
        run *= math.sqrt(m) / k
        off += s * s
    amap = amap_t.T
    # the pseudoinverse is taken through the n_AB^2 x n_AB^2 Gram matrix
    gpinv = np.linalg.pinv(amap @ amap.conj().T, rcond=RANK_RTOL, hermitian=True)
    for arr in (amap, gpinv):
        arr.setflags(write=False)
    return _Blocks(tuple(dims), tuple(isos), tuple(weights), amap, gpinv)


@lru_cache(maxsize=None)
def _extension_blocks(d_a: int, d_b: int, k: int, flavor: str) -> _Blocks:
    """Blocks of the flavor: every lambda with at most d_B rows, or only lambda = (k)."""
    shapes = [(k,)] if flavor == BOSONIC else list(_partitions(k, d_b))
    isos = [np.kron(np.eye(d_a), _weyl_isometry(d_b, s)) for s in shapes]
    weights = [_specht_dim(s) for s in shapes]
    for iso in isos:
        iso.setflags(write=False)
    return _make_blocks((d_a,) + (d_b,) * k, isos, weights)


# --- facial reduction -------------------------------------------------------
#
# A kernel vector v of the marginal forces every PSD candidate X to satisfy
# X (v tensor w) = 0 on each (A, B_i) placement: the marginal constraint puts
# zero weight on v, and a PSD matrix with zero expectation on a projector
# annihilates its range.  Restricting the iteration to that forced support
# face restores linear convergence for rank-deficient marginals, where the
# feasible set would otherwise touch the PSD cone tangentially.  The face is
# permutation invariant, so it meets each block in a subspace of that block:
# V_b becomes V_b null(R V_b), with R the kernel rows over all k placements.

KERNEL_TOL = 1e-12


def _state_kernel(rho: DensityMatrix) -> np.ndarray | None:
    """Kernel basis of the marginal as columns, or None when full rank."""
    eigs, vecs = np.linalg.eigh(rho.mat)
    cols = vecs[:, eigs <= KERNEL_TOL]
    return cols if cols.shape[1] else None


def _nullspace(rows: np.ndarray) -> np.ndarray:
    # vh is square either way; a full U for tall rows would only cost memory
    _, svals, vh = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    rank = int(np.sum(svals > RANK_RTOL * svals[0])) if svals.size else 0
    return vh[rank:].conj().T


def _kernel_rows(kernel: np.ndarray, iso: np.ndarray, dims) -> np.ndarray:
    """R V: the kernel vectors of the marginal on every (A, B_i) placement, applied to V."""
    s = iso.shape[1]
    return np.vstack([np.tensordot(kernel.conj(), p, axes=(0, 0)).reshape(-1, s) for p in _placements(iso, dims)])


def _face_blocks(blocks: _Blocks, kernel: np.ndarray) -> _Blocks:
    isos, weights = [], []
    for v, m in zip(blocks.isos, blocks.weights):
        null = _nullspace(_kernel_rows(kernel, v, blocks.dims))
        if null.shape[1]:
            isos.append(v @ null)
            weights.append(m)
    return _make_blocks(blocks.dims, isos, weights)


# --- the iteration --------------------------------------------------------------


def _gap_trace(gaps: list[float]) -> tuple[tuple[int, float], ...]:
    n = len(gaps)
    if n <= GAP_TRACE_POINTS:
        idx = range(n)
    else:
        idx = [i * (n - 1) // (GAP_TRACE_POINTS - 1) for i in range(GAP_TRACE_POINTS)]
    return tuple((i + 1, gaps[i]) for i in idx)


def _run_dykstra(blocks: _Blocks, rho: DensityMatrix, cfg: OracleConfig) -> OracleResult:
    target = rho.mat.ravel()
    # the projection of any start in the range of amap^dag, rho (x) I among them
    x = blocks.correction(target)
    p = np.zeros_like(x)
    gaps: list[float] = []
    status, stop = UNDECIDED, STOP_MAX_ITERS
    y = x
    gap = float("inf")
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        try:
            y = np.concatenate([project_psd(b).ravel() for b in blocks.split(x + p)])
        except np.linalg.LinAlgError:
            # undecided, not a failure: report the iterations completed before it
            iterations -= 1
            stop = STOP_LINALG_ERROR
            break
        p = x + p - y
        x = blocks.project_affine(y, target)
        gap = float(np.linalg.norm(x - y))
        gaps.append(gap)
        if gap <= cfg.tol_feasible:
            status, stop = FEASIBLE, STOP_FEASIBLE_GAP
            break
        if len(gaps) >= STABLE_WINDOW:
            window = gaps[-STABLE_WINDOW:]
            hi, lo = max(window), min(window)
            if lo >= cfg.tol_gap and (hi - lo) <= STABLE_RTOL * hi:
                status, stop = INFEASIBLE, STOP_STABLE_GAP
                break
    # checked on the isometries and the blocks, independently of amap
    certificate = {
        "marginal_residual": float(np.linalg.norm(blocks.placed_marginal(y) - rho.mat)),
        "min_eig": float("nan") if stop == STOP_LINALG_ERROR else blocks.min_eig(x),
        "gap_estimate": gap,
    }
    return OracleResult(
        status=status,
        residual=gap,
        iterations=iterations,
        certificate=certificate,
        stop_reason=stop,
        block_sides=blocks.sides,
        gap_trace=_gap_trace(gaps),
    )


def oracle_feasibility(problem: ExtensionProblem, cfg: OracleConfig | None = None) -> OracleResult:
    """Decide extendability numerically, independent of the derived-state criteria.

    Feasible: a PSD iterate sits within tol_feasible of the constraint set.
    Infeasible: the inter-set gap stabilized at or above tol_gap, or the
    support face forced by the marginal's kernel cannot reproduce the
    marginal at all.  Undecided: the iteration budget ran out first
    (expected near the feasibility boundary, where first-order methods
    converge slowly), or both eigensolver paths of the PSD projection
    failed (stop reason ``linalg-error``, ``min_eig`` NaN).
    """
    cfg = cfg or OracleConfig()
    rho = problem.marginal
    d_a, d_b = rho.dims
    k = problem.k

    # the side of A (x) B^(x)k, or of A (x) Sym^k(B) for the bosonic flavor
    side = d_a * (d_b**k if problem.flavor == SYMMETRIC else math.comb(d_b + k - 1, k))
    if side > cfg.dim_limit:
        raise ResourceLimitError(f"extension space side {side} exceeds the limit {cfg.dim_limit}")
    blocks = _extension_blocks(d_a, d_b, k, problem.flavor)

    kernel = _state_kernel(rho)
    if kernel is not None:
        blocks = _face_blocks(blocks, kernel)
        target = rho.mat.ravel()
        deficit = float(np.linalg.norm(blocks.marginal(blocks.correction(target)) - target))
        if deficit >= cfg.tol_gap:
            # no candidate on the forced support face matches the marginal
            certificate = {"marginal_residual": deficit, "min_eig": 0.0, "gap_estimate": deficit}
            return OracleResult(
                INFEASIBLE,
                residual=deficit,
                iterations=0,
                certificate=certificate,
                stop_reason=STOP_FACE_REACH,
                block_sides=blocks.sides,
            )

    return _run_dykstra(blocks, rho, cfg)
