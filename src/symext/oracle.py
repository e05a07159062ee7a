"""Numerical feasibility oracle for extension problems.

Decides k-symmetric / k-bosonic extendability at desk scale as the
projection of the origin onto the permutation-invariant PSD extension
candidates with the prescribed marginal, by a semismooth Newton method on
the dual (Qi & Sun, SIMAX 2006; Malick, SIMAX 2004).  It stops Feasible
when a PSD point lies within TOL_FEASIBLE of the affine set of candidates.

Infeasible is a checked proof, never a stalled gap.  By SDP duality
(Doherty, Parrilo & Spedalieri, PRA 69, 022308, 2004) no extension exists
exactly when some Hermitian W on AB has a PSD lift
(1/k) sum_i W_{AB_i} (x) I on the extension space and Tr(W rho) < 0.  The
candidate W is Newton's dual point, negated.  The oracle shifts W by the
multiple of the identity that makes its lift PSD on every block and stops
once Tr(W' rho) <= -TOL_GAP ||W'||_2, a margin that rounding on a boundary
marginal cannot fake.  Stop reasons: ``feasible-gap`` (Feasible),
``dual-certificate`` and ``face-reach`` (Infeasible), ``max-iters`` and
``linalg-error`` (Undecided).

The iteration runs on isotypic blocks, not on the full space.  By
Schur-Weyl duality a permutation-invariant operator on A (x) B^(x)k is
X = sum_lambda I_{m_lambda} (x) M_lambda, with lambda a partition of k into
at most d_B rows, m_lambda its Specht dimension (the number of standard
Young tableaux of shape lambda) and M_lambda acting on one copy
C^{d_A} (x) V_lambda, embedded by an isometry.  Each block is stored as
sqrt(m_lambda) M_lambda: with that weighting the map from blocks to X is an
isometry, so the projection on the blocks is the projection of X, up to
rounding, while every eigensolve has the side of one block.  The bosonic
flavor keeps the single block lambda = (k) (the symmetric subspace,
weight 1); the symmetric flavor keeps every lambda.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import ClassVar, Mapping

import numpy as np

from .criteria import BOSONIC, SYMMETRIC, ExtensionProblem
from .errors import LayoutError, ResourceLimitError, ValidationError
from .linalg import (
    BYTE_BUDGET,
    DensityMatrix,
    _check_extension_layout,
    _checked_instance,
    _checked_int,
    _checked_layout,
    _exact_real,
    _occupation_isometry,
    _ptrace_mat,
    _require_work,
    hermitize,
)

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNDECIDED = "Undecided"

# Why an oracle run stopped.
STOP_FEASIBLE_GAP = "feasible-gap"  # the gap fell to TOL_FEASIBLE
STOP_DUAL_CERTIFICATE = "dual-certificate"  # a checked dual witness proves infeasibility
STOP_MAX_ITERS = "max-iters"  # the step budget ran out, or the line search found no descent
STOP_FACE_REACH = "face-reach"  # the forced support face cannot reproduce the marginal
STOP_LINALG_ERROR = "linalg-error"  # an eigensolve or the Newton system failed

# Feasible when a PSD point lies within this distance of the affine set.
TOL_FEASIBLE = 1e-7

# The line between a real gap and rounding: the least face-reach residual
# and the certificate's margin.
TOL_GAP = 1e-6

# Widest extension space side the oracle admits.
DIM_LIMIT = 256

# Relative singular-value cutoff of rank decisions: face null spaces and the
# Gram pseudoinverse, whose null directions carry rounding noise.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class OracleConfig:
    """The oracle's one setting, its budget of Newton steps; the tolerances and the side limit are fixed."""

    max_iters: int = 30

    tol_feasible: ClassVar[float] = TOL_FEASIBLE
    tol_gap: ClassVar[float] = TOL_GAP
    dim_limit: ClassVar[int] = DIM_LIMIT

    def __post_init__(self):
        _checked_int(self.max_iters, "max_iters", 1)


_DEFAULT_CONFIG = OracleConfig()


@dataclass(frozen=True)
class OracleResult:
    """Verdict of one oracle run.

    Feasible means a PSD point sits within TOL_FEASIBLE of the constraint
    set (stop reason ``feasible-gap``).  Infeasible means a checked dual
    certificate (``dual-certificate`` from Newton's dual point, ``face-reach``
    when the forced support face cannot reproduce the marginal):
    ``dual_witness`` is the Hermitian W' on AB, and the certificate reports
    ``dual_trace`` = Tr(W' rho), ``dual_min_eig``, the smallest eigenvalue of
    its lift (1/k) sum_i W'_{AB_i} (x) I on the span of the blocks, and
    ``certified``, true when Tr(W' rho) <= -TOL_GAP ||W'||_2.  Undecided
    means the steps ran out or the line search found no descent
    (``max-iters``), or an eigensolve failed (``linalg-error``).

    ``iterations`` counts the Newton steps, 0 for ``face-reach``.
    ``gap_trace`` holds the gap tested at each step as (step, gap) pairs,
    and ``block_sides`` are the sides of the blocks Newton ran on.
    """

    status: str
    residual: float
    iterations: int
    certificate: Mapping[str, float | bool] = field(default_factory=dict)
    stop_reason: str = STOP_MAX_ITERS
    block_sides: tuple[int, ...] = ()
    gap_trace: tuple[tuple[int, float], ...] = ()
    dual_witness: np.ndarray | None = field(default=None, compare=False)


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clip negative eigenvalues.  A non-finite entry raises ValidationError."""
    m = _checked_layout(m, None, "matrix")[0]
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains non-finite entries")
    h = hermitize(m)
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
    x, dims = _checked_layout(x, dims, "matrix")
    k = _check_extension_layout(dims)[2]
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
    x, dims = _checked_layout(x, dims, "matrix")
    d_a, d_b, k = _check_extension_layout(dims)
    _checked_instance(target, DensityMatrix, "target", (d_a, d_b))
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
    x, dims = _checked_layout(x, dims, "matrix")
    d_a, d_b, k = _check_extension_layout(dims)
    _checked_instance(target, DensityMatrix, "target", (d_a, d_b))
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
    contents = [c - r for r, row in enumerate(shape) for c in range(row)]
    basis = np.eye(d**k)  # _check_reach bounds d^k
    for j in range(1, k):
        t = basis.reshape((d,) * k + (-1,))
        jm = sum(np.swapaxes(t, i, j) for i in range(j)).reshape(len(basis), -1)
        w, u = np.linalg.eigh(basis.T @ jm)
        basis = basis @ u[:, np.abs(w - contents[j]) < 0.5]  # the eigenvalues are integers
    basis.setflags(write=False)
    return basis


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for a vector or C-ordered matrix v; a real a is not cast to complex for a complex v."""
    if a.dtype.kind == "c" or v.dtype.kind != "c":
        return a @ v
    pairs = v.view(float).reshape(len(v), 2 * math.prod(v.shape[1:]))
    return (a @ pairs).view(complex).reshape((a.shape[0],) + v.shape[1:])


@dataclass(frozen=True)
class _Blocks:
    """Weighted blocks of one extension layout and their marginal map.

    Block b holds N_b = sqrt(m_b) V_b^dag X V_b for the isometry V_b into
    A (x) B^(x)k; the iterate is the flat concatenation of the N_b.  V_b is
    stored placed: placed[b][i - 1] is V_b with B_i moved next to A, as
    (A B_i, the other B factors in order, column).  Only the distinct
    placements are stored: all k for a block whose columns B_1..B_k permute,
    one (i = 1) for lambda = (k), whose columns are symmetric in them, so that
    every sum over placements averages over len(placed[b]).  amap maps
    the iterate to the flattened AB marginal of
    X = sum_b sqrt(m_b) Sym(V_b N_b V_b^dag), and gpinv is the pseudoinverse
    of its Gram matrix amap amap^dag, so that amap^dag gpinv is the
    Moore-Penrose inverse of amap.  Both are real unless the face of a
    complex marginal made the isometries complex.

    On the face of a rank-deficient marginal, frame is the n_AB x r basis F
    of its range, and every placement is stored row-compressed as F^dag p:
    the face annihilates the kernel on each (A, B_i), so F F^dag p = p.  amap
    then maps onto the r^2 entries of F^dag (marginal) F, and the duals of
    Newton live there too; compress and expand move between them and AB.
    Full-rank blocks have frame None and work on all n_AB^2 entries.

    The rest is the plan of a solve, computed once per block set so that a
    solve pays for its eigensolves and little else: runs[b] = (start, stop,
    side) of block b in the flat iterate; rows[b], its placements as the
    (r, placements * other B factors * side) rows that placed_marginal
    contracts, a view when one placement is stored; scales[b] =
    sqrt(m_b) / len(placed[b]) and roots[b] = sqrt(m_b); and transpose, the
    index that maps each entry of the flat iterate to its mirror entry
    within its block.  All arrays are read-only.
    """

    dims: tuple[int, ...]
    placed: tuple[np.ndarray, ...]
    weights: tuple[int, ...]
    amap: np.ndarray
    gpinv: np.ndarray
    frame: np.ndarray | None
    rank: int  # side r of the duals: the rank of the marginal on a face, n_AB otherwise
    sides: tuple[int, ...]
    runs: tuple[tuple[int, int, int], ...]
    rows: tuple[np.ndarray, ...]
    scales: tuple[float, ...]
    roots: tuple[float, ...]
    transpose: np.ndarray

    def compress(self, op: np.ndarray) -> np.ndarray:
        """The flattened F^dag op F of an operator on AB; op itself, flattened, off a face."""
        return op.ravel() if self.frame is None else (self.frame.conj().T @ op @ self.frame).ravel()

    def expand(self, flat: np.ndarray) -> np.ndarray:
        """The operator F w F^dag on AB of a flattened r x r matrix w."""
        w = flat.reshape(self.rank, self.rank)
        return w if self.frame is None else self.frame @ w @ self.frame.conj().T

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[..., a:b].reshape(flat.shape[:-1] + (s, s)) for a, b, s in self.runs]

    def hermitian(self, flat: np.ndarray) -> np.ndarray:
        """The Hermitian part of every block of a flat iterate, or of each of a stack, in one pass; hermitize's sums."""
        half = flat / 2
        return half + half.take(self.transpose, axis=-1).conj()

    def marginal(self, flat: np.ndarray) -> np.ndarray:
        return _matvec(self.amap, flat)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """amap^dag w: the blocks of the lift (1/k) sum_i W_{AB_i} (x) I of W = expand(w); amap is not copied."""
        if self.amap.dtype.kind != "c" and w.dtype.kind != "c":
            return self.amap.T @ w
        return _matvec(self.amap.T, w.conj()).conj()

    def correction(self, deficit: np.ndarray) -> np.ndarray:
        """Least-norm flat iterate whose marginal is deficit, when one exists: amap^+ deficit."""
        return self.adjoint(_matvec(self.gpinv, deficit))

    def placed_marginal(self, flat: np.ndarray) -> np.ndarray:
        """The AB marginal of X, contracted from the isometries instead of through amap.

        The AB_1 marginal of Sym(Y) is the average over i of the (A, B_i)
        marginal of Y: per block, one contraction of N_b with its stored
        placements of V_b, all at once, then lifted back to AB through the frame.
        """
        r = self.rank
        out = None
        for v, scale, (a, b, s) in zip(self.rows, self.scales, self.runs):
            vn = (v.reshape(-1, s) @ flat[a:b].reshape(s, s)).reshape(r, -1)
            term = scale * (vn @ v.conj().T)
            if out is None:
                out = term
            else:
                out += term
        if out is None:  # the span of no blocks
            out = np.zeros((r, r), dtype=np.result_type(flat, self.amap))
        return self.expand(out)

    def min_eig(self, *flats: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of each X on the span of the blocks, one eigensolve per block for all of them.

        X vanishes off that span; on it X is the direct sum of I_{m_b} (x) M_b, with M_b = N_b / sqrt(m_b).
        The span of no blocks is empty, and the minimum over it infinite.
        """
        lows = [math.inf] * len(flats)
        for root, blk in zip(self.roots, self.split(self.hermitian(np.array(flats)))):
            eigs = np.linalg.eigvalsh(blk)
            for i, low in enumerate(lows):
                value = eigs.item(i, 0) / root
                # as np.minimum takes it: value unless low is smaller, and a NaN on either side
                if not low < value and low == low:
                    lows[i] = value
        return np.array(lows)


def _make_blocks(dims, placed, weights, frame=None) -> _Blocks:
    # the placements have r rows per B factor: n_AB, or the frame's rank on a face
    r = dims[0] * dims[1] if frame is None else frame.shape[1]
    sides = tuple(p.shape[-1] for p in placed)
    offsets = list(accumulate((s * s for s in sides), initial=0))
    runs = tuple(zip(offsets, offsets[1:], sides))
    # rows (A B_i, placement, other B factors); a view when one placement is stored
    rows = tuple(p.swapaxes(0, 1).reshape(r, -1) for p in placed)
    scales = tuple(math.sqrt(m) / len(p) for p, m in zip(placed, weights))
    roots = tuple(math.sqrt(m) for m in weights)
    transpose = np.arange(offsets[-1])
    # amap^T, so that each block's columns of amap are one contiguous run
    amap_t = np.empty((offsets[-1], r * r), dtype=np.result_type(float, *placed))
    for p, scale, (a, b, s) in zip(placed, scales, runs):
        transpose[a:b] = transpose[a:b].reshape(s, s).T.ravel()
        # sum over the placements of the trace over the B factors other than B_i of V N V^dag
        u = p.transpose(1, 3, 0, 2).reshape(r * s, -1)
        uu = (u @ u.conj().T).reshape(r, s, r, s)
        run = amap_t[a:b]
        run.reshape(s, s, r, r)[...] = uu.transpose(1, 3, 0, 2)
        run *= scale
    amap = amap_t.T
    # the pseudoinverse is taken through the r^2 x r^2 Gram matrix; it is PSD, so the eigenvalues
    # above RANK_RTOL times the largest are the singular values pinv would keep
    lam, vecs = np.linalg.eigh(amap @ amap.conj().T)
    keep = lam > RANK_RTOL * lam[-1]
    gpinv = (vecs[:, keep] / lam[keep]) @ vecs[:, keep].conj().T
    for arr in (*placed, *rows, amap, gpinv, transpose) + (() if frame is None else (frame,)):
        arr.setflags(write=False)
    return _Blocks(tuple(dims), tuple(placed), tuple(weights), amap, gpinv, frame, r, sides, runs, rows, scales, roots,
                   transpose)


def _held_bytes(blocks: _Blocks) -> int:
    """Bytes of the distinct buffers behind a block set's arrays: a view counts as the array it views."""
    owners = {}
    for arr in (*blocks.placed, *blocks.rows, blocks.amap, blocks.gpinv, blocks.transpose):
        while arr.base is not None:
            arr = arr.base
        owners[id(arr)] = arr.nbytes
    return sum(owners.values())


class _LeastRecentlyUsed:
    """A thread-safe cache of block sets by layout that holds at most BYTE_BUDGET bytes of block arrays.

    A set is built outside the lock, so a slow build delays no other layout; when two threads build one
    layout, the first set cached is the one both return.  Past the budget the least recently used sets go
    first, and a set larger than the whole budget is returned without being kept or evicting any other.
    """

    def __init__(self, build):
        self.build = build
        self.lock = threading.Lock()
        self.sets: OrderedDict[tuple, tuple[_Blocks, int]] = OrderedDict()  # layout -> (set, bytes), oldest first
        self.held = 0

    def __call__(self, *layout) -> _Blocks:
        with self.lock:
            entry = self.sets.get(layout)
            if entry is not None:
                self.sets.move_to_end(layout)
                return entry[0]
        blocks = self.build(*layout)
        size = _held_bytes(blocks)
        with self.lock:
            entry = self.sets.get(layout)
            if entry is not None:
                self.sets.move_to_end(layout)
                return entry[0]
            if size > BYTE_BUDGET:  # kept, it would evict every set and then itself
                return blocks
            self.sets[layout] = (blocks, size)
            self.held += size
            while self.held > BYTE_BUDGET:
                self.held -= self.sets.popitem(last=False)[1][1]
        return blocks


@_LeastRecentlyUsed
def _extension_blocks(d_a: int, d_b: int, k: int, flavor: str) -> _Blocks:
    """Blocks of the flavor: every lambda with at most d_B rows, or only lambda = (k)."""
    shapes = [(k,)] if flavor == BOSONIC else list(_partitions(k, d_b))
    dims = (d_a,) + (d_b,) * k
    # B_i moved next to A, the other B factors and the column in order
    orders = [(0, i) + tuple(j for j in range(1, k + 2) if j != i) for i in range(1, k + 1)]
    placed = []
    for s in shapes:
        t = np.kron(np.eye(d_a), _weyl_isometry(d_b, s)).reshape(dims + (-1,))
        # lambda = (k) spans symmetric columns, so its k placements are one array
        distinct = orders[:1] if len(s) == 1 else orders
        placed.append(np.stack([t.transpose(order).reshape(d_a * d_b, d_b ** (k - 1), -1) for order in distinct]))
    return _make_blocks(dims, placed, [_specht_dim(s) for s in shapes])


# --- facial reduction -------------------------------------------------------
#
# A kernel vector v of the marginal forces every PSD candidate X to satisfy
# X (v tensor w) = 0 on each (A, B_i) placement: the marginal constraint puts
# zero weight on v, and a PSD matrix with zero expectation on a projector
# annihilates its range.  Restricting the iteration to that forced support
# face restores linear convergence for rank-deficient marginals, where the
# feasible set would otherwise touch the PSD cone tangentially.  The face is
# permutation invariant, so it meets each block in a subspace of that block:
# V_b becomes V_b null(R V_b), with R the kernel rows over all k placements;
# the stored placements give the same rows, since the others repeat them.
# A placement only permutes the rows of V_b, so the face block is stored as
# the placed V_b times null(R V_b).  Its A B_i rows lie in the range of the
# marginal, so it is stored compressed onto the range basis F, and the dual
# shrinks with it (Borwein & Wolkowicz, 1981): every marginal the face can
# reach is F h F^dag for a Hermitian h of side r = rank(rho).

KERNEL_TOL = 1e-12


def _solve_matrix(rho: DensityMatrix) -> np.ndarray:
    """The marginal as the solve reads it: its real part when its imaginary part is exactly zero.

    The block isometries are real, so a real marginal keeps its kernel and frame, the face blocks, the
    dual point, the Newton system and the witness in float64; any other marginal runs in complex.
    """
    return _exact_real(rho.mat)


def _state_kernel(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """Kernel and range bases of the marginal as columns, from one eigensolve, or None when full rank."""
    if rho._min_eig > 2 * KERNEL_TOL:  # validation's smallest eigenvalue, clear of the cut by more than rounding
        return None
    eigs, vecs = np.linalg.eigh(_solve_matrix(rho))
    null = eigs <= KERNEL_TOL
    return (vecs[:, null], vecs[:, ~null]) if null.any() else None


def _nullspace(rows: np.ndarray) -> np.ndarray:
    """Null space basis, as columns, of the m x s kernel rows M: the right singular vectors whose singular values
    are at or below RANK_RTOL times the largest.

    Rows at least as tall as they are wide first try to prove that no singular value is that small, by one
    Cholesky of H = G - RANK_RTOL tr(G) I with G = M^dag M.  Forming G rounds it by at most gamma_m tr G (Higham,
    Accuracy and Stability of Numerical Algorithms, section 3.5; gamma_n = n u / (1 - n u) for the unit roundoff
    u), and a Cholesky that succeeds factors H up to a backward error of at most gamma_(s+1) tr G (Theorem 10.3).
    Both stay below RANK_RTOL tr(G) / 2 while (m + s + 1) u <= RANK_RTOL / 4, which every layout _check_reach
    admits: m is at most the stored placements (k, or one for lambda = (k)) times (n_AB - 1) d_B^(k-1), 30,720
    at bosonic 8 x 2, k = 12, and s at most 256.  So success proves sigma_min(M)^2 >= RANK_RTOL tr(G) / 2 >=
    RANK_RTOL sigma_max(M)^2 / 2: sigma_min / sigma_max is at least sqrt(RANK_RTOL / 2), about 7e-6, five
    orders of magnitude above the cut and far past the SVD's own rounding, so the SVD would keep every singular
    value and the null space is empty.  A Cholesky that fails proves nothing: the QR and SVD below decide.
    """
    m, s = rows.shape
    if m >= s:
        gram = rows.conj().T @ rows
        gram.flat[:: s + 1] -= RANK_RTOL * np.trace(gram).real
        try:
            np.linalg.cholesky(gram)
            return np.zeros((s, 0), dtype=rows.dtype)
        except np.linalg.LinAlgError:
            pass
    # tall rows have the singular values and right singular vectors of their
    # s x s factor R, and a U that would only be discarded
    if m > s:
        rows = np.linalg.qr(rows, mode="r")
    _, svals, vh = np.linalg.svd(rows)
    rank = int(np.sum(svals > RANK_RTOL * svals[0])) if svals.size else 0
    return vh[rank:].conj().T


def _face_blocks(blocks: _Blocks, kernel: np.ndarray, frame: np.ndarray) -> _Blocks:
    placed, weights = [], []
    for p, m in zip(blocks.placed, blocks.weights):
        count, n_ab, rest, s = p.shape
        rows = p.reshape(count, n_ab, -1)
        # R V, rows ordered (stored placement, kernel vector, other B factors)
        null = _nullspace((kernel.conj().T @ rows).reshape(-1, s))
        if null.shape[1]:
            # K^dag V null(R V) = 0, so F^dag loses nothing of the face placement
            placed.append(((frame.conj().T @ rows).reshape(-1, s) @ null).reshape(count, frame.shape[1], rest, -1))
            weights.append(m)
    return _make_blocks(blocks.dims, placed, weights, frame)


# --- verdicts and certificates ---------------------------------------------------


def _checked_witness(op: np.ndarray, low: float, rho: DensityMatrix) -> tuple[np.ndarray, float, bool]:
    """(W', Tr(W' rho), test) for W' = W + t I, the operator W = op on AB shifted by t = max(0, -low).

    low is the smallest eigenvalue of the lift of W on the blocks.  amap^dag maps I to sqrt(m_b) I on
    block b (on a face, I and F F^dag have the same lift), so the lift of W' is PSD, any extension X has
    Tr(W' rho) = <amap^dag W', X> >= 0, and Tr(W' rho) < 0 proves there is none.  The test asks for
    Tr(W' rho) < 0 and Tr(W' rho) <= -TOL_GAP ||W'||_2: as |Tr(W' (sigma - rho))| <= ||W'||_2
    ||sigma - rho||_1, a witness that passes also proves that no sigma within trace norm TOL_GAP of rho
    extends.  On a boundary marginal, whose trace can be negative only by rounding, it fails.

    ||W'||_2 is bracketed by ||W'||_F / sqrt(n) <= ||W'||_2 <= ||W'||_F for W' of side n, and the largest
    singular value is computed only when Tr(W' rho) falls between the two bounds' verdicts: at or below
    -TOL_GAP ||W'||_F the test passes, above -TOL_GAP ||W'||_F / sqrt(n) it fails.  Each bound is padded by
    64 n ulps, past the rounding of the norm's sum of n^2 squares and of LAPACK's largest singular value, so a
    bound decides only what the SVD would.
    """
    witness = hermitize(op)
    n = len(op)
    witness.flat[:: n + 1] += max(0.0, -low)
    trace = float(np.vdot(witness, rho.mat).real)
    if not trace < 0:
        return witness, trace, False
    fro = math.sqrt(float(np.vdot(witness, witness).real))
    pad = 64 * n * math.ulp(1.0)
    if trace <= -TOL_GAP * fro * (1 + pad):
        return witness, trace, True
    if trace > -TOL_GAP * fro * (1 - pad) / math.sqrt(n):
        return witness, trace, False
    return witness, trace, trace <= -TOL_GAP * float(np.linalg.svd(witness, compute_uv=False)[0])


def _verdict(blocks: _Blocks, rho: DensityMatrix, status: str, stop: str, y: np.ndarray, x: np.ndarray,
             gap: float, dual: tuple[np.ndarray, float, bool] | None, **telemetry) -> OracleResult:
    """The result of a run that ended at the PSD point y with affine projection x.

    An Infeasible result comes with dual = (W', Tr(W' rho), certificate test),
    as the run computed them, and also reports the smallest eigenvalue of the
    lift of W', read from W' itself in the eigensolves that read min_eig of x.
    """
    lifts = () if dual is None else (blocks.adjoint(blocks.compress(dual[0])),)
    # checked on the placed isometries and the blocks, independently of amap
    lows = [math.nan] if stop == STOP_LINALG_ERROR else blocks.min_eig(x, *lifts)
    certificate = {
        "marginal_residual": float(np.linalg.norm(blocks.placed_marginal(y) - rho.mat)),
        "min_eig": float(lows[0]),
    }
    witness = None
    if dual is not None:
        witness, trace, certified = dual
        witness.setflags(write=False)
        certificate.update(dual_trace=trace, dual_min_eig=float(lows[1]), certified=certified)
    return OracleResult(
        status=status,
        residual=gap,
        certificate=certificate,
        stop_reason=stop,
        block_sides=blocks.sides,
        dual_witness=witness,
        **telemetry,
    )


# --- semismooth Newton on the dual ----------------------------------------------
#
# The projection of the origin onto {X PSD : amap(X) = rho} is
# X = P+(amap^dag w) at the minimum of the dual
# theta(w) = 1/2 ||P+(amap^dag w)||^2 - <w, rho>, with gradient
# amap P+(amap^dag w) - rho.  theta has only n_AB^2 variables, r^2 on the
# face of a rank-r marginal, where rho stands for F^dag rho F, and is
# strongly semismooth, so Newton's method with the generalized Hessian
# amap J amap^dag and an Armijo line search converges quadratically (Qi &
# Sun, SIMAX 28, 360, 2006; Malick, SIMAX 26, 272, 2004).  For an infeasible
# marginal theta is unbounded below and -w becomes a dual witness.


def _theta(y: np.ndarray, w: np.ndarray, target: np.ndarray) -> float:
    """theta(w) = 1/2 ||y||^2 - <w, rho> for y = P+(amap^dag w)."""
    return 0.5 * float(np.vdot(y, y).real) - float(np.vdot(w, target).real)


def _dual_point(blocks: _Blocks, w: np.ndarray, target: np.ndarray | None, z: np.ndarray | None = None):
    """(parts, y, theta) at w: the eigendecomposition of each block of z = amap^dag w, y = P+(z), theta(w).

    Every dual point after Newton's start is formed here, and so is the start when _start_point finds a block
    of z that is not positive definite; z, the Hermitian part of amap^dag w, is passed when already formed.
    theta is None when no target is given: the start's is formed only for a Newton step.
    """
    if z is None:
        z = blocks.hermitian(blocks.adjoint(w))
    parts = [np.linalg.eigh(b) for b in blocks.split(z)]
    y = np.empty_like(z)
    for (lam, v), (a, b, s) in zip(parts, blocks.runs):
        np.matmul(v * np.maximum(lam, 0.0), v.conj().T, out=y[a:b].reshape(s, s))
    return parts, y, None if target is None else _theta(y, w, target)


def _start_point(blocks: _Blocks, w: np.ndarray):
    """(parts, y) at Newton's start w, with parts None when one Cholesky per block proves z = amap^dag w PD.

    Then P+(z) = z: y is z itself, and no eigensolve runs until the run needs the spectra, for a certificate
    test or a Newton step.  A Cholesky that fails only says that its block is not positive definite, never
    linalg-error: the start is then formed in full by _dual_point.
    """
    z = blocks.hermitian(blocks.adjoint(w))
    try:
        for b in blocks.split(z):
            np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return _dual_point(blocks, w, None, z)[:2]
    return None, z


def _jacobian_weights(lam: np.ndarray) -> np.ndarray:
    """Divided differences of max(., 0) at the ascending eigenvalues: J(E) = V (omega o V^dag E V) V^dag.

    With the n0 non-positive eigenvalues first, omega is 0 among them and 1 among the positive ones; across
    zero it is lam_q / (lam_q - lam_p) for lam_q > 0 >= lam_p, in row q and column p and mirrored.
    """
    n = len(lam)
    n0 = int(lam.searchsorted(0.0, "right"))
    omega = np.zeros((n, n))
    omega[n0:, n0:] = 1.0
    rise = lam[n0:, None]
    across = rise / (rise - lam[:n0])
    omega[n0:, :n0] = across
    omega[:n0, n0:] = across.T
    return omega


def _newton_hessian(blocks: _Blocks, parts) -> np.ndarray:
    """The generalized Hessian amap J amap^dag in closed form: sum_b conj(C_b) diag(vec omega_b) C_b^T.

    Column j of amap^dag is G_j = conj(A_j), for A_j the j-th row of amap's
    block-b columns read as an s x s matrix, and J(G) = V (omega o V^dag G V) V^dag
    on a block with eigenvectors V; row j of C_b holds the entries of V^dag G_j V.
    """
    m = blocks.amap.shape[0]
    hess = np.zeros((m, m), dtype=np.result_type(blocks.amap, *(v for _, v in parts)))
    for (lam, v), (a, b, s) in zip(parts, blocks.runs):
        # amap's block-b columns, stored as rows of amap^T: A_j[p, q] at [p, (q, j)]
        run = blocks.amap[:, a:b].T.reshape(s, s * m)
        # conj(C_b): V^T A_j conj(V), from (V^T A_j)[a, q] stored at [q, (j, a)]
        conj_c = (_matvec(run.T, v).reshape(s, m * s).T @ v.conj()).reshape(m, s * s)
        # conj() of a real array is the array itself: scaling it in place would scale conj_c too
        weighted = conj_c.conj() * _jacobian_weights(lam).ravel()
        hess += conj_c @ weighted.T
    return hess


def _run_newton(blocks: _Blocks, rho: DensityMatrix, max_iters: int) -> OracleResult:
    """The verdict of at most max_iters Newton steps, the only path from blocks to a verdict.

    On a face the run first tests the reach of amap: when amap amap^+ rho
    misses rho by TOL_GAP or more, the residual is the witness and the run
    ends Infeasible before any step (``face-reach``).  Step j tests the dual
    point w: Feasible when X = P+(amap^dag w) lies within TOL_FEASIBLE of its
    affine projection, Infeasible when -w, shifted, passes the certificate
    test; otherwise, before the last step, it moves w by a Newton step
    damped by an Armijo line search.  w starts at gpinv rho, where amap^dag w
    = amap^+ rho; on a face w and rho are r x r, read in the frame, and the
    witness is lifted back to AB.  When one Cholesky per block proves that
    start positive definite, X is the start itself, and its eigensolves run
    only if the run goes on to a certificate test or a Newton step.  Only
    rounding makes it go on: the start's affine correction
    amap^+ (amap amap^+ rho - rho) is zero, so the run stops Feasible at
    step 1, on a face too.  The run ends Undecided when the steps run
    out or the line search finds no descent (``max-iters``) and when an
    eigensolve fails, in the reach test or the certificate's readbacks too
    (``linalg-error``), reporting the last point it tested.
    """
    mat = _solve_matrix(rho)
    target = blocks.compress(mat)
    w = _matvec(blocks.gpinv, target)
    gaps: list[float] = []
    status, stop, dual = UNDECIDED, STOP_MAX_ITERS, None
    try:
        if blocks.frame is not None:  # off a face amap is onto: every marginal is reached
            x = blocks.adjoint(w)  # amap^+ rho
            # read on all of AB, so that the marginal's part below KERNEL_TOL on its kernel counts
            residual = mat - blocks.expand(blocks.marginal(x))
            deficit = float(np.linalg.norm(residual))
            if deficit >= TOL_GAP:
                # the residual is orthogonal to the range of amap, so W = -residual
                # has amap^dag W = 0 and Tr(W rho) = -deficit^2
                low = blocks.min_eig(blocks.adjoint(blocks.compress(-residual)))[0]
                return _verdict(blocks, rho, INFEASIBLE, STOP_FACE_REACH, x, x, deficit,
                                _checked_witness(-residual, low, rho), iterations=0)
        parts, y = _start_point(blocks, w)
        theta = None
        for step in range(1, max_iters + 1):
            c = blocks.correction(blocks.marginal(y) - target)  # y minus its affine projection
            x = y - c
            gap = float(np.linalg.norm(c))
            gaps.append(gap)
            if gap <= TOL_FEASIBLE:
                status, stop = FEASIBLE, STOP_FEASIBLE_GAP
                break
            if parts is None:  # a positive definite start that did not stop Feasible
                parts = [np.linalg.eigh(b) for b in blocks.split(y)]
            # the lift of -w has the negated spectra of the blocks of amap^dag w
            low = min((-lam.item(-1) / root for root, (lam, _) in zip(blocks.roots, parts)), default=math.inf)
            candidate = _checked_witness(blocks.expand(-w), low, rho)
            if candidate[2]:
                status, stop, dual = INFEASIBLE, STOP_DUAL_CERTIFICATE, candidate
                break
            if step == max_iters:
                break
            # the gradient's part in the range of amap: the rest is the
            # marginal's residual off a support face, which no w changes
            grad = blocks.marginal(c)
            hess = _newton_hessian(blocks, parts)
            hess.flat[:: len(grad) + 1] += 1e-10
            d = np.linalg.solve(hess, -grad)
            d = hermitize(d.reshape(blocks.rank, blocks.rank)).ravel()
            slope = float(np.vdot(grad, d).real)
            if theta is None:
                theta = _theta(y, w, target)
            alpha = 1.0
            for _ in range(30):
                moved = w + alpha * d
                trial = _dual_point(blocks, moved, target)
                if trial[2] <= theta + 1e-4 * alpha * slope:
                    break
                alpha /= 2
            else:
                break  # no descent along d
            w = moved
            parts, y, theta = trial
        return _verdict(blocks, rho, status, stop, y, x, gap, dual,
                        iterations=len(gaps), gap_trace=tuple(enumerate(gaps, 1)))
    except np.linalg.LinAlgError:
        if not gaps:  # no point tested: report the start's lift at an unknown gap
            x = y = blocks.adjoint(w)
            gap = math.inf
        return _verdict(blocks, rho, UNDECIDED, STOP_LINALG_ERROR, y, x, gap, None,
                        iterations=len(gaps), gap_trace=tuple(enumerate(gaps, 1)))


def _check_reach(d_a: int, d_b: int, k: int, flavor: str) -> None:
    """Refuse before any work a layout whose extension space side, or whose n_AB^2, exceeds DIM_LIMIT.

    The space is A (x) B^(x)k, or A (x) Sym^k(B) for the bosonic flavor; the Gram matrix and Newton's Hessian
    are at most n_AB^2 x n_AB^2.  The work rule bounds the block isometries' d_B^k rows before any power is
    formed.  A one-dimensional B is refused: a state on A (x) C^1 is its own extension.
    """
    if d_b < 2:
        raise LayoutError(f"the extended factor B must have dimension at least 2, got {d_b}")
    if (d_a * d_b) ** 2 > DIM_LIMIT:
        raise ResourceLimitError(f"dual side ({d_a}*{d_b})^2 = {(d_a * d_b) ** 2} exceeds the limit {DIM_LIMIT}")
    lg = k * math.log2(d_b)  # log2 of d_B^k; _weyl_isometry starts from the real identity of that side
    _require_work(f"block isometries on {d_b}^{k}", 2 * lg, 3 + 2 * lg)
    side = d_a * (d_b**k if flavor == SYMMETRIC else math.comb(d_b + k - 1, k))
    if side > DIM_LIMIT:
        raise ResourceLimitError(f"extension space side {side} exceeds the limit {DIM_LIMIT}")


def oracle_feasibility(problem: ExtensionProblem, cfg: OracleConfig | None = None) -> OracleResult:
    """Decide extendability numerically, independent of the derived-state criteria.

    Newton's method on the dual runs for at most max_iters steps.  Feasible
    (stop reason ``feasible-gap``): a PSD point sits within TOL_FEASIBLE of
    the constraint set.  Infeasible: a checked dual certificate, a Hermitian
    W' on AB whose lift is PSD on the blocks and whose trace against the
    marginal is at most -TOL_GAP ||W'||_2.  It comes from Newton's dual
    point, tested at every step (``dual-certificate``), or from the
    marginal's residual when the support face forced by its kernel cannot
    reproduce it at all (``face-reach``).  Undecided: the steps ran out or
    the line search found no descent (``max-iters``, expected within about
    TOL_GAP of the feasibility boundary), or an eigensolve failed
    (``linalg-error``, ``min_eig`` NaN).
    """
    rho = _checked_instance(problem, ExtensionProblem, "problem").marginal
    max_iters = _checked_instance(_DEFAULT_CONFIG if cfg is None else cfg, OracleConfig, "cfg").max_iters
    d_a, d_b = rho.dims
    _check_reach(d_a, d_b, problem.k, problem.flavor)
    blocks = _extension_blocks(d_a, d_b, problem.k, problem.flavor)

    face = _state_kernel(rho)
    if face is not None:
        blocks = _face_blocks(blocks, *face)
    return _run_newton(blocks, rho, max_iters)
