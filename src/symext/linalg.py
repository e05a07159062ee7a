"""Dense complex linear algebra over multi-factor tensor spaces.

States are plain numpy arrays wrapped in :class:`DensityMatrix`, which pins
down the tensor-factor layout and enforces the physical invariants
(Hermitian, trace one, positive semidefinite within tolerance).
"""

from __future__ import annotations

import math
import string
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import LayoutError, ResourceLimitError, ValidationError

# Default validation tolerance: double-precision dense eigensolves on the
# matrix sizes handled here (side <= 256) keep errors well below it.  PSD
# slack is ten times the tolerance (1e-9 at the default).
HERM_TOL = 1e-10
ENTROPY_CLAMP = 1e-12
SYM_SUPPORT_TOL = 1e-9

# Dense constructions on r factors (permutation operators, symmetric
# projectors, twirls, the isotypic bases) hold matrices or isometries of side
# d^r; refuse anything larger.
DIM_GUARD = 4096


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M^dag) / 2."""
    return (m + m.conj().T) / 2


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-entry deviation of M from its adjoint."""
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m: np.ndarray, tol: float = HERM_TOL, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LayoutError(f"{what} must be square, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValidationError(f"{what} is not Hermitian: max |M - M^dag| entry {defect:.1e}")
    return m


class DensityMatrix:
    """Validated density matrix with an explicit tensor-factor layout.

    ``dims`` lists the factor dimensions in order, e.g. ``(2, 2)`` for two
    qubits; their product must equal the matrix side.  Validation checks
    Hermiticity and unit trace within ``tol`` and positivity within
    ``10 * tol`` slack (the defaults reproduce 1e-10 / 1e-9).
    """

    def __init__(self, mat: np.ndarray, dims: Sequence[int] | None = None, *, tol: float = HERM_TOL):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise LayoutError(f"state matrix must be square, got shape {mat.shape}")
        side = mat.shape[0]
        if dims is None:
            dims = (side,)
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise LayoutError(f"factor dimensions must be >= 1, got {dims}")
        if math.prod(dims) != side:
            raise LayoutError(f"layout {dims} implies side {math.prod(dims)}, matrix side is {side}")
        if not np.isfinite(mat).all():
            raise ValidationError("state matrix contains non-finite entries")
        defect = hermiticity_defect(mat)
        if defect > tol:
            raise ValidationError(f"state is not Hermitian: max |M - M^dag| entry {defect:.1e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > tol:
            raise ValidationError(f"trace deviates by {abs(tr - 1.0):.1e}")
        lo = float(np.linalg.eigvalsh(hermitize(mat))[0])
        if lo < -10 * tol:
            raise ValidationError(f"minimal eigenvalue {lo:.3e} is below the PSD tolerance -{10 * tol:.0e}")
        self._mat = hermitize(mat)
        self._mat.setflags(write=False)
        self._dims = dims
        self._tol = float(tol)

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def side(self) -> int:
        return self._mat.shape[0]

    @property
    def tol(self) -> float:
        """Validation tolerance this state was accepted at; derived states inherit it."""
        return self._tol

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self._dims})"


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    """I/d on the given layout."""
    side = math.prod(dims)
    return DensityMatrix(np.eye(side, dtype=complex) / side, dims)


def pure_state(vec: np.ndarray, dims: Sequence[int] | None = None) -> DensityMatrix:
    """Projector |v><v| / <v|v> on the given layout."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm < 1e-14:
        raise ValidationError("cannot normalize a zero vector")
    vec = vec / norm
    return DensityMatrix(np.outer(vec, vec.conj()), dims)


def random_density(dims: Sequence[int], rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state from the Ginibre ensemble."""
    side = math.prod(dims)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real, dims)


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; the layout is the concatenation of the layouts."""
    return DensityMatrix(np.kron(a.mat, b.mat), a.dims + b.dims, tol=max(a.tol, b.tol))


def _check_positions(positions: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    pos = tuple(int(i) for i in positions)
    if len(pos) != len(set(pos)):
        raise LayoutError(f"{what} contains duplicate indices: {pos}")
    for i in pos:
        if not 0 <= i < n:
            raise LayoutError(f"{what} index {i} out of range for {n} factors")
    return pos


def _ptrace_mat(mat: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Partial trace of a raw square matrix over the factors not in ``keep``."""
    dims = tuple(dims)
    n = len(dims)
    keep = sorted(_check_positions(keep, n, "keep"))
    if not keep:
        raise LayoutError("keep must name at least one factor")
    t = np.asarray(mat).reshape(dims + dims)
    letters = string.ascii_letters
    row = [letters[i] for i in range(n)]
    col = list(row)
    for j, i in enumerate(keep):
        col[i] = letters[n + j]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    reduced = np.einsum("".join(row + col) + "->" + "".join(out), t)
    side = math.prod(dims[i] for i in keep)
    return reduced.reshape(side, side)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the factors in ``keep``, kept in original order."""
    keep = sorted(_check_positions(keep, len(rho.dims), "keep"))
    reduced = _ptrace_mat(rho.mat, rho.dims, keep)
    return DensityMatrix(hermitize(reduced), tuple(rho.dims[i] for i in keep), tol=rho.tol)


def _ptranspose_mat(mat: np.ndarray, dims: Sequence[int], subsystem: int) -> np.ndarray:
    dims = tuple(dims)
    n = len(dims)
    (subsystem,) = _check_positions([subsystem], n, "subsystem")
    t = np.asarray(mat).reshape(dims + dims)
    t = np.swapaxes(t, subsystem, n + subsystem)
    side = math.prod(dims)
    return t.reshape(side, side)


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose one tensor factor; Hermitian and trace-preserving, possibly not PSD."""
    return _ptranspose_mat(rho.mat, rho.dims, subsystem)


def hermitian_eigs(m: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, ascending."""
    m = require_hermitian(m, tol)
    return np.linalg.eigvalsh(hermitize(m))


def trace_norm(m: np.ndarray, tol: float = HERM_TOL) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(hermitian_eigs(m, tol))))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    return 0.5 * trace_norm(a.mat - b.mat)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy in bits; eigenvalues below 1e-12 count as zero."""
    eigs = np.linalg.eigvalsh(rho.mat)
    eigs = eigs[eigs > ENTROPY_CLAMP]
    return float(-np.sum(eigs * np.log2(eigs)))


def _check_permutation(pi: Sequence[int], k: int) -> tuple[int, ...]:
    pi = tuple(int(i) for i in pi)
    if sorted(pi) != list(range(k)):
        raise ValidationError(f"permutation {pi} is not a bijection on 0..{k - 1}")
    return pi


def permutation_operator(d: int, k: int, pi: Sequence[int]) -> np.ndarray:
    """Unitary reordering tensor factors: the factor at position m moves to position pi[m]."""
    pi = _check_permutation(pi, k)
    size = d**k
    if size > DIM_GUARD:
        raise ResourceLimitError(f"permutation operator on dimension {size} exceeds the guard {DIM_GUARD}")
    digits = np.array(list(np.ndindex((d,) * k)), dtype=np.intp)
    out_digits = np.empty_like(digits)
    for m in range(k):
        out_digits[:, pi[m]] = digits[:, m]
    target = np.ravel_multi_index(out_digits.T, (d,) * k)
    w = np.zeros((size, size), dtype=complex)
    w[target, np.arange(size)] = 1.0
    return w


def _check_extension_layout(dims) -> tuple[int, int, int]:
    """(d_A, d_B, r) of a layout [d_A, d_B, ..., d_B] with r equal B factors."""
    dims = tuple(dims)
    if len(dims) < 2:
        raise LayoutError(f"need a layout [d_A, d_B, ..., d_B], got {dims}")
    d_a, d_b = dims[0], dims[1]
    if any(d != d_b for d in dims[1:]):
        raise LayoutError(f"all B factors must share one dimension, got layout {dims}")
    return d_a, d_b, len(dims) - 1


@lru_cache(maxsize=None)
def _occupation_isometry(d: int, k: int) -> np.ndarray:
    """Isometry from the occupation-number basis of the symmetric subspace into d^k.

    Column j is the normalized sum of the words that sort to the j-th sorted
    word; V V^dag is the symmetric projector (1/k!) sum of all W_pi.
    """
    if d**k > DIM_GUARD:
        raise ResourceLimitError(f"symmetric subspace on dimension {d**k} exceeds the guard {DIM_GUARD}")
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, word in enumerate(np.ndindex((d,) * k)):
        groups.setdefault(tuple(sorted(word)), []).append(idx)
    keys = sorted(groups)
    iso = np.zeros((d**k, len(keys)))
    for col, key in enumerate(keys):
        rows = groups[key]
        iso[rows, col] = 1.0 / math.sqrt(len(rows))
    iso.setflags(write=False)
    return iso


def _require_symmetric_support(mat: np.ndarray, iso: np.ndarray, what: str) -> None:
    """Raise unless mat equals its compression V V^dag mat V V^dag onto the range of the real isometry V."""
    compressed = iso @ (iso.T @ mat @ iso) @ iso.T
    defect = float(np.max(np.abs(compressed - mat)))
    if defect > SYM_SUPPORT_TOL:
        raise ValidationError(f"{what} not supported on the symmetric subspace: defect {defect:.1e}")


def symmetric_projector(d: int, r: int) -> np.ndarray:
    """Projector onto the symmetric subspace of r factors: (1/r!) sum of all W_pi.

    Built as V V^dag from the occupation-number isometry V, without the
    permutation sum.  Idempotent, Hermitian, with trace C(d + r - 1, r).
    """
    if d < 1 or r < 1:
        raise ValidationError(f"need d >= 1 and r >= 1, got d={d}, r={r}")
    iso = _occupation_isometry(d, r).astype(complex)
    return iso @ iso.T


def twirl_channel(rho_sym: DensityMatrix, d: int) -> np.ndarray:
    """Collapse a symmetric k-factor state to one factor via the permutation-sum average.

    Computes Tr over factors 2..k+1 of (I tensor rho) multiplied by the sum of
    all permutation operators on k+1 factors, normalized to trace one.  For
    inputs supported on the symmetric subspace this equals the normalization
    of tr(rho) I + k rho_B, where rho_B is the single-factor marginal.
    """
    dims = rho_sym.dims
    k = len(dims)
    if any(dim != d for dim in dims):
        raise LayoutError(f"all factors must have dimension {d}, got layout {dims}")
    # the permutation sum is (k+1)! V V^dag; V as (first factor, the other k, column)
    t = _occupation_isometry(d, k + 1).reshape(d, d**k, -1)
    _require_symmetric_support(rho_sym.mat, _occupation_isometry(d, k), "state is")
    # Tr_{2..k+1}[(I x rho) V V^dag] = sum_j T_j rho^T T_j^T, T_j = t[:, :, j]; V is real
    out = np.tensordot(t, np.tensordot(rho_sym.mat.T, t, axes=(1, 1)), axes=([1, 2], [0, 2]))
    out = hermitize(out)
    return out / np.trace(out).real
