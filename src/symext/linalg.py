"""Dense complex linear algebra over multi-factor tensor spaces.

States are numpy arrays wrapped in :class:`DensityMatrix`, which pins down the
tensor-factor layout and enforces the physical invariants (Hermitian, trace
one, PSD within tolerance).  The private kernels (``_validated_spectra``,
``_reduced_stack``, ``_ptrace_mat``, ``_ptranspose_mat``, ``_trace_norms``,
``_entropies``) work on stacks of shape (N, n, n) and trust their callers: the
public functions check outside input once, then call them with a stack of one.
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

_EPS = np.finfo(float).eps

# Dense constructions on r factors (permutation operators, symmetric
# projectors, the isotypic bases) hold matrices or isometries of side d^r;
# refuse anything larger.
DIM_GUARD = 4096


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M^dag) / 2, of one matrix or of each matrix of a stack.

    Halving first is exact for normal floats and keeps the sum of finite entries finite.
    """
    half = m / 2
    return half + half.conj().swapaxes(-1, -2)


def _hermiticity_defects(m: np.ndarray) -> np.ndarray:
    """Max-entry deviation from the adjoint of each matrix of a stack."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    return int(mask.argmax()) if mask.any() else None


def _hermitian_spectra(ms: np.ndarray, tol: float) -> np.ndarray:
    """Ascending spectra of a stack; a non-finite entry or a Hermiticity defect above tol raises ValidationError."""
    if not np.isfinite(ms).all():
        raise ValidationError("matrix contains non-finite entries")
    with np.errstate(over="ignore"):  # entries near the float limit overflow the defect to inf, which fails
        defects = _hermiticity_defects(ms)
    i = _first(~(defects <= tol))
    if i is not None:
        raise ValidationError(f"matrix is not Hermitian: max |M - M^dag| entry {defects[i]:.1e}")
    return np.linalg.eigvalsh(hermitize(ms))


def _checked_tol(tol: float) -> float:
    """A validation tolerance as a float; NaN, infinite and negative values raise ValidationError."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tolerance must be finite and >= 0, got {tol}")
    return tol


def _checked_int(value, what: str, least: int | None, error: type[ValidationError] = ValidationError) -> int:
    """An integer input as an int, by the one integer rule: bools, floats, strings and None raise error.

    So do values below least, unless least is None; numpy integers pass.  Concrete types, not
    numbers.Integral: an abstract check costs about 0.5 us, and ExtensionProblem runs this per verdict.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def _checked_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Factor dimensions as ints, each an integer >= 1; else LayoutError."""
    return tuple(_checked_int(d, "factor dimension", 1, LayoutError) for d in dims)


def _checked_layout(mat, dims: Iterable[int] | None, what: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """The one layout rule: a square matrix, as complex, and integer factor dimensions >= 1 whose product is its side.

    dims None is one factor; a breach raises LayoutError.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise LayoutError(f"{what} must be square, got shape {mat.shape}")
    dims = (len(mat),) if dims is None else _checked_dims(dims)
    if math.prod(dims) != len(mat):
        raise LayoutError(f"layout {dims} implies side {math.prod(dims)}, matrix side is {len(mat)}")
    return mat, dims


def _exact_real(mats: np.ndarray) -> np.ndarray:
    """The real part of a matrix or stack whose imaginary part is exactly zero; any other input as it is.

    Real input then runs every later step, the eigensolves included, in float64.
    """
    return mats if mats.imag.any() else mats.real


def _validated_spectra(mats: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Run DensityMatrix's checks, at a checked tol, on each matrix of a stack; return Hermitian parts and spectra.

    The checks, in DensityMatrix's order: finite entries, Hermiticity defect
    <= tol, |trace - 1| <= tol, smallest eigenvalue >= -10 tol.  On failure
    the error is the one DensityMatrix raises for the first failing state on
    its own.  States from the first non-finite one on never reach the
    eigensolver.
    """
    finite = np.isfinite(mats)
    stop = None if finite.all() else _first(~finite.all(axis=(1, 2)))
    mats = mats[:stop]
    # finite entries near the float limit can overflow the defect and the
    # trace to inf, or to nan; the checks below are written to fail on nan
    with np.errstate(over="ignore", invalid="ignore"):
        defects = _hermiticity_defects(mats)
        deviation = np.abs(mats.diagonal(axis1=1, axis2=2).sum(axis=-1) - 1.0)
    herm = hermitize(mats)
    spectra = np.linalg.eigvalsh(herm)
    lo = spectra[:, 0]
    i = _first(~((defects <= tol) & (deviation <= tol) & (lo >= -10 * tol)))
    if i is not None:
        if not defects[i] <= tol:
            raise ValidationError(f"state is not Hermitian: max |M - M^dag| entry {defects[i]:.1e}")
        if not deviation[i] <= tol:
            raise ValidationError(f"trace deviates by {deviation[i]:.1e}")
        raise ValidationError(f"minimal eigenvalue {lo[i]:.3e} is below the PSD tolerance -{10 * tol:.0e}")
    if stop is not None:
        raise ValidationError("state matrix contains non-finite entries")
    return herm, spectra


class DensityMatrix:
    """Density matrix with an explicit tensor-factor layout, validated unless a proof builds it (``_proven``).

    ``dims`` lists the factor dimensions in order as integers, e.g. ``(2, 2)``
    for two qubits (a float, a string or a bool is refused); their product
    must equal the matrix side.  Validation checks Hermiticity and unit trace
    within ``tol`` and positivity within ``10 * tol`` slack (the defaults
    reproduce 1e-10 / 1e-9).  ``tol`` must be finite and non-negative.
    """

    def __init__(self, mat: np.ndarray, dims: Sequence[int] | None = None, *, tol: float = HERM_TOL):
        mat, dims = _checked_layout(mat, dims, "state matrix")
        tol = _checked_tol(tol)
        herm, spectra = _validated_spectra(mat[None], tol)
        self._hold(herm[0], dims, tol, spectra[0])

    @classmethod
    def _proven(cls, mat: np.ndarray, dims: Sequence[int], tol: float, spectrum: np.ndarray | None = None):
        """A state valid by a proof its caller states, held unchecked; its spectrum is solved unless given."""
        rho, mat = cls.__new__(cls), np.asarray(mat, dtype=complex)
        rho._hold(mat, dims, tol, np.linalg.eigvalsh(mat) if spectrum is None else spectrum)
        return rho

    def _hold(self, mat: np.ndarray, dims: Sequence[int], tol: float, spectrum: np.ndarray) -> None:
        """Set the fields: read-only matrix and ascending spectrum (read by the entropies), checked dims and tol."""
        self._mat, self._spectrum, self._dims, self._tol = mat, spectrum, tuple(dims), tol
        self._min_eig = spectrum[0]  # the oracle reads full rank off it, the criteria rho_A's validity
        mat.setflags(write=False)
        spectrum.setflags(write=False)

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


def _checked_side(dims: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """A layout a state is built on, as checked dims, and its side, refused above DIM_GUARD."""
    dims = _checked_dims(dims)
    side = math.prod(dims)
    if side > DIM_GUARD:
        raise ResourceLimitError(f"state side {side} exceeds the guard {DIM_GUARD}")
    return dims, side


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    """I/d on the given layout, valid by construction: its spectrum is 1/d, d times, with no eigensolve."""
    dims, side = _checked_side(dims)
    return DensityMatrix._proven(np.eye(side, dtype=complex) / side, dims, HERM_TOL, np.full(side, 1 / side))


def pure_state(vec: np.ndarray, dims: Sequence[int] | None = None) -> DensityMatrix:
    """Projector |v><v| / <v|v> on the given layout."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    # NaN or inf entries, or squares whose sum overflows, leave a norm that is not
    # finite: refused here, before the division below would warn
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(vec)
    if not math.isfinite(norm):
        raise ValidationError(f"cannot normalize a vector of norm {norm}")
    if norm < 1e-14:
        raise ValidationError("cannot normalize a zero vector")
    vec = vec / norm
    return DensityMatrix(np.outer(vec, vec.conj()), dims)


def random_density(dims: Sequence[int], rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state from the Ginibre ensemble."""
    dims, side = _checked_side(dims)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real, dims)


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; the layout is the concatenation of the layouts."""
    return DensityMatrix(np.kron(a.mat, b.mat), a.dims + b.dims, tol=max(a.tol, b.tol))


def _check_positions(positions: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    """Factor positions from outside: at least one, each an integer in range, none twice; else LayoutError."""
    pos = tuple(_checked_int(i, f"{what} index", None, LayoutError) for i in positions)
    if not pos:
        raise LayoutError(f"{what} must name at least one factor")
    if len(pos) != len(set(pos)):
        raise LayoutError(f"{what} contains duplicate indices: {pos}")
    for i in pos:
        if not 0 <= i < n:
            raise LayoutError(f"{what} index {i} out of range for {n} factors")
    return pos


def _ptrace_mat(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace over the factors not in ``keep``, positions in increasing order, of a matrix or of a stack."""
    dims = tuple(dims)
    n = len(dims)
    lead = mat.shape[:-2]
    t = mat.reshape(lead + dims + dims)
    letters = string.ascii_letters
    row = [letters[i] for i in range(n)]
    col = list(row)
    for j, i in enumerate(keep):
        col[i] = letters[n + j]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    reduced = np.einsum("..." + "".join(row + col) + "->..." + "".join(out), t)
    side = math.prod(dims[i] for i in keep)
    return reduced.reshape(lead + (side, side))


def _reduced_stack(
    mats: np.ndarray, dims: Sequence[int], keep: Sequence[int], tol: float, lo
) -> tuple[np.ndarray, np.ndarray | None]:
    """Partial traces of a stack of states validated at tol with smallest eigenvalues lo, each proven or validated.

    With d the product of the traced dimensions, <x|Tr_B rho|x> = sum_b <x b|rho|x b>
    >= d lambda_min(rho) for unit x.  So where d lo >= -5 tol for every state, each
    reduced state passes the PSD check at -10 tol with 5 tol to spare for rounding:
    about side eps for each eigenvalue of rho, counted d times, and less for the
    partial trace and the reduced state's own eigensolve.  A partial trace of an
    exactly Hermitian matrix is exactly Hermitian, and its trace is Tr rho up to
    summation rounding.  Where the proof does not hold, the reduced states are
    validated, with DensityMatrix's checks and messages, and their ascending
    spectra are returned with them so no caller solves them again; else None.
    """
    reduced = hermitize(_ptrace_mat(mats, dims, keep))
    traced = math.prod(dim for i, dim in enumerate(dims) if i not in keep)
    spare = 5 * tol
    if spare >= 3 * traced * mats.shape[-1] * _EPS and np.all(traced * lo >= -spare):
        return reduced, None
    return _validated_spectra(reduced, tol)


def _reduced_of(rho: DensityMatrix, keep: Sequence[int]) -> np.ndarray:
    """The reduced state of one validated state on the factors in keep, as a stack of one, by :func:`_reduced_stack`."""
    return _reduced_stack(rho.mat[None], rho.dims, keep, rho.tol, rho._min_eig)[0]


def _reduced_entropies(mats: np.ndarray, dims: Sequence[int], keep: Sequence[int], tol: float, lo) -> np.ndarray:
    """Entropy in bits of each state of :func:`_reduced_stack`, off the spectra its validation solved if it did."""
    reduced, spectra = _reduced_stack(mats, dims, keep, tol, lo)
    return _entropies(reduced) if spectra is None else _spectral_entropies(spectra)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the factors in ``keep``, kept in original order; :func:`_reduced_stack` proves or validates it."""
    keep = sorted(_check_positions(keep, len(rho.dims), "keep"))
    reduced, spectra = _reduced_stack(rho.mat[None], rho.dims, keep, rho.tol, rho._min_eig)
    dims = tuple(rho.dims[i] for i in keep)
    return DensityMatrix._proven(reduced[0], dims, rho.tol, None if spectra is None else spectra[0])


def _ptranspose_mat(mat: np.ndarray, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose the factor at position subsystem of a square matrix or of each matrix of a stack."""
    dims = tuple(dims)
    n = len(dims)
    lead = mat.shape[:-2]
    t = mat.reshape(lead + dims + dims)
    return np.swapaxes(t, len(lead) + subsystem, len(lead) + n + subsystem).reshape(mat.shape)


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose one tensor factor; Hermitian and trace-preserving, possibly not PSD."""
    (subsystem,) = _check_positions([subsystem], len(rho.dims), "subsystem")
    return _ptranspose_mat(rho.mat, rho.dims, subsystem)


def hermitian_eigs(m: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, ascending."""
    return _hermitian_spectra(_checked_layout(m, None, "matrix")[0][None], _checked_tol(tol))[0]


def trace_norm(m: np.ndarray, tol: float = HERM_TOL) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(_trace_norms(_checked_layout(m, None, "matrix")[0][None], _checked_tol(tol))[0])


def _trace_norms(ms: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Trace norm of each Hermitian matrix of a stack; a norm beyond the float range raises ValidationError."""
    with np.errstate(over="ignore"):
        norms = np.sum(np.abs(_hermitian_spectra(ms, tol)), axis=-1)
    if not np.isfinite(norms).all():
        raise ValidationError("trace norm overflows the float range")
    return norms


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    return float(_trace_distances(a.mat[None], b.mat[None])[0])


def _trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the trace norm of each difference of two stacks."""
    return 0.5 * _trace_norms(a - b)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy in bits; eigenvalues below 1e-12 count as zero."""
    return float(_spectral_entropies(rho._spectrum))


def _entropies(mats: np.ndarray) -> np.ndarray:
    """Spectral entropy in bits of each matrix of a stack of states."""
    return _spectral_entropies(np.linalg.eigvalsh(mats))


def _spectral_entropies(eigs: np.ndarray) -> np.ndarray:
    """Entropy in bits of each spectrum of an (N, n) stack of them."""
    # eigenvalues at or below the clamp contribute 0 * log2(1); no log of zero is taken
    return -np.sum(eigs * np.log2(np.where(eigs > ENTROPY_CLAMP, eigs, 1.0)), axis=-1)


def _checked_power(d: int, k: int, what: str) -> int:
    """d^k for k factors of dimension d, refused above DIM_GUARD; k is compared with log2(DIM_GUARD) first."""
    if k > DIM_GUARD.bit_length() - 1 or d**k > DIM_GUARD:
        raise ResourceLimitError(f"{what} on dimension {d}^{k} exceeds the guard {DIM_GUARD}")
    return d**k


def permutation_operator(d: int, k: int, pi: Sequence[int]) -> np.ndarray:
    """Unitary reordering tensor factors: the factor at position m moves to position pi[m]."""
    d, k = _checked_int(d, "local dimension", 1), _checked_int(k, "factor count", 1)
    size = _checked_power(d, k, "permutation operator")
    pi = tuple(_checked_int(i, "permutation entry", None) for i in pi)
    if sorted(pi) != list(range(k)):
        raise ValidationError(f"permutation {pi} is not a bijection on 0..{k - 1}")
    digits = np.array(list(np.ndindex((d,) * k)), dtype=np.intp)
    out_digits = np.empty_like(digits)
    for m in range(k):
        out_digits[:, pi[m]] = digits[:, m]
    target = np.ravel_multi_index(out_digits.T, (d,) * k)
    w = np.zeros((size, size), dtype=complex)
    w[target, np.arange(size)] = 1.0
    return w


def _require_bipartite(rho: DensityMatrix) -> tuple[int, int]:
    """The layout (d_A, d_B) of a state on two factors; any other number of factors raises LayoutError."""
    if len(rho.dims) != 2:
        raise LayoutError(f"expected a bipartite layout, got {rho.dims}")
    return rho.dims


def _check_extension_layout(dims) -> tuple[int, int, int]:
    """(d_A, d_B, r) of a checked layout (d_A, d_B, ..., d_B) with r equal B factors."""
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
    size = _checked_power(d, k, "symmetric subspace")
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, word in enumerate(np.ndindex((d,) * k)):
        groups.setdefault(tuple(sorted(word)), []).append(idx)
    keys = sorted(groups)
    iso = np.zeros((size, len(keys)))
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
    d, r = _checked_int(d, "local dimension", 1), _checked_int(r, "factor count", 1)
    iso = _occupation_isometry(d, r).astype(complex)
    return iso @ iso.T

