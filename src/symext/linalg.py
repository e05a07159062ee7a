"""Dense complex linear algebra over multi-factor tensor spaces.

States are numpy arrays wrapped in :class:`DensityMatrix`, which pins down the
tensor-factor layout and enforces the physical invariants (Hermitian, trace
one, PSD within tolerance).  The private kernels (``_validated_spectra``,
``_reduced_stack``, ``_ptrace_mat``, ``_ptranspose_mat``, ``_trace_norms``,
``_entropies``) work on stacks of shape (N, n, n) and trust their callers: the
public functions check outside input once, then call them with a stack of one.
"""

from __future__ import annotations

import itertools
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
_FLOAT_MAX = float(np.finfo(float).max)

# The dense-work rule: a construction is refused before it allocates when its estimate passes either
# budget.  A dense eigensolve or product of side s, such as validating a state, counts s^3 operations;
# 2^34 of them took 3 to 4 s on 2 cores.  2^28 bytes hold one complex matrix of side 4096.
WORK_BUDGET = 2**34
BYTE_BUDGET = 2**28


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


def _shown(value) -> str:
    """A value from outside as a refusal message shows it: its repr, or an int of 2^64 or more as a power of two."""
    big = isinstance(value, int) and not -(2**64) < value < 2**64
    return f"{'-' if value < 0 else ''}2^{math.log2(abs(value)):.1f}" if big else repr(value)


def _require_work(what: str, ops: float, nbytes: float) -> None:
    """The dense-work rule on log2 estimates, which form no d^k for an unchecked k: ResourceLimitError past a budget."""
    work, size = math.log2(WORK_BUDGET), math.log2(BYTE_BUDGET)
    if not (ops <= work and nbytes <= size):
        raise ResourceLimitError(f"{what} needs 2^{ops:.1f} operations and 2^{nbytes:.1f} bytes, "
                                 f"above the budget of 2^{work:.0f} operations and 2^{size:.0f} bytes")


def _real(value) -> float:
    """The real rule's predicate: a Python or numpy int or float as a float, anything else (a bool too) as NaN."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    return float(value) if number and not (isinstance(value, int) and abs(value) > _FLOAT_MAX) else math.nan


def _checked_real(value, what: str, lo: float, hi: float) -> float:
    """The one real rule: a finite Python or numpy int or float in [lo, hi], as a float; else ValidationError."""
    x = _real(value)
    if not (math.isfinite(x) and lo <= x <= hi):
        span = f"{'(' if lo == -math.inf else '['}{lo:g}, {hi:g}{')' if hi == math.inf else ']'}"
        raise ValidationError(f"{what} must lie in {span}, got {_shown(value)}")
    return x


def _checked_array(value, what: str, kinds: str = "iufc") -> np.ndarray:
    """The real rule's arrays: np.asarray(value); a ragged array or a dtype kind not in kinds raises ValidationError."""
    try:
        arr = np.asarray(value)
    except ValueError:  # numpy refuses a ragged nesting
        raise ValidationError(f"{what} must be a numeric array, got a ragged sequence") from None
    if arr.dtype.kind not in kinds:  # bool, string and object arrays are not numeric
        raise ValidationError(f"{what} must be a numeric array, got dtype {arr.dtype}")
    return arr


def _checked_tol(tol: float) -> float:
    """A validation tolerance as a float; non-numbers by the real rule, NaN, inf and negatives raise ValidationError."""
    value = _real(tol)
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"tolerance must be finite and >= 0, got {_shown(tol)}")
    return value


def _checked_int(value, what: str, least: int | None, error: type[ValidationError] = ValidationError) -> int:
    """An integer input as an int, by the one integer rule: bools, floats, strings and None raise error.

    So do values below least, unless least is None, and values beyond the float range; numpy integers pass.
    Concrete types, not numbers.Integral: an abstract check costs about 0.5 us, and this runs per verdict.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{what} must be an integer{bound}, got {_shown(value)}")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # float math on it would raise OverflowError
        raise error(f"{what} must lie within the float range, got {_shown(value)}")
    return int(value)


def _checked_instance(value, cls: type, what: str, dims: tuple[int, ...] | None = None):
    """The one argument rule: value if a cls, else ValidationError naming its type; a state off dims: LayoutError."""
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be of type {cls.__name__}, got {type(value).__name__}")
    if dims is not None and value.dims != dims:
        raise LayoutError(f"{what} must have layout {dims}, got {value.dims}")
    return value


def _checked_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Factor dimensions as ints, each an integer >= 1; else LayoutError."""
    if not np.iterable(dims):
        raise LayoutError(f"factor dimensions must be a sequence, got {_shown(dims)}")
    return tuple(_checked_int(d, "factor dimension", 1, LayoutError) for d in dims)


def _checked_layout(mat, dims: Iterable[int] | None, what: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """The one layout rule: a square matrix, as complex, and integer factor dimensions >= 1 whose product is its side.

    dims None is one factor; a breach raises LayoutError.
    """
    mat = _checked_array(mat, what).astype(complex, copy=False)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise LayoutError(f"{what} must be square, got shape {mat.shape}")
    dims = (len(mat),) if dims is None else _checked_dims(dims)
    if math.prod(dims) != len(mat):
        raise LayoutError(f"layout {dims} implies side {_shown(math.prod(dims))}, matrix side is {len(mat)}")
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
        deviation = np.abs(mats.trace(axis1=1, axis2=2) - 1.0)
    herm = hermitize(mats)
    spectra = np.linalg.eigvalsh(herm)
    lo = spectra[:, 0]
    passed = (defects <= tol) & (deviation <= tol) & (lo >= -10 * tol)
    if not passed.all():
        i = int(passed.argmin())  # the first failing state
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


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    """I/d on the given layout, valid by construction: its spectrum is 1/d, d times, with no eigensolve."""
    dims = _checked_dims(dims)
    side = math.prod(dims)
    _require_work("maximally_mixed", 2 * math.log2(side), 4 + 2 * math.log2(side))
    return DensityMatrix._proven(np.eye(side, dtype=complex) / side, dims, HERM_TOL, np.full(side, 1 / side))


def pure_state(vec: np.ndarray, dims: Sequence[int] | None = None) -> DensityMatrix:
    """Projector |v><v| / <v|v> on the given layout."""
    vec = _checked_array(vec, "state vector").astype(complex, copy=False).reshape(-1)
    # NaN or inf entries, or squares whose sum overflows, leave a norm that is not
    # finite: refused here, before the division below would warn
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(vec)
    if not math.isfinite(norm):
        raise ValidationError(f"cannot normalize a vector of norm {norm}")
    if norm < 1e-14:
        raise ValidationError("cannot normalize a zero vector")
    _require_work("pure_state", 3 * math.log2(len(vec)), 4 + 2 * math.log2(len(vec)))
    vec = vec / norm
    return DensityMatrix(np.outer(vec, vec.conj()), dims)


def random_density(dims: Sequence[int], rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state from the Ginibre ensemble."""
    dims = _checked_dims(dims)
    side = math.prod(dims)  # one product and one validating eigensolve
    _require_work("random_density", 1 + 3 * math.log2(side), 4 + 2 * math.log2(side))
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real, dims)


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; the layout is the concatenation of the layouts."""
    side = _checked_instance(a, DensityMatrix, "state").side * _checked_instance(b, DensityMatrix, "state").side
    _require_work("tensor_product", 3 * math.log2(side), 4 + 2 * math.log2(side))
    return DensityMatrix(np.kron(a.mat, b.mat), a.dims + b.dims, tol=max(a.tol, b.tol))


def _check_positions(positions: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    """Factor positions from outside: at least one, each an integer in range, none twice; else LayoutError."""
    if not np.iterable(positions):
        raise LayoutError(f"{what} must be a sequence of factor positions, got {_shown(positions)}")
    pos = tuple(_checked_int(i, f"{what} index", None, LayoutError) for i in positions)
    if not pos:
        raise LayoutError(f"{what} must name at least one factor")
    if len(pos) != len(set(pos)):
        raise LayoutError(f"{what} contains duplicate indices: {pos}")
    for i in pos:
        if not 0 <= i < n:
            raise LayoutError(f"{what} index {i} out of range for {n} factors")
    return pos


@lru_cache(maxsize=None)
def _ptrace_plan(dims: tuple[int, ...], keep: tuple[int, ...]) -> tuple[str, int]:
    """The einsum subscripts and the reduced side of :func:`_ptrace_mat`, built once per layout."""
    n, letters = len(dims), string.ascii_letters
    row = [letters[i] for i in range(n)]
    col = list(row)
    for j, i in enumerate(keep):
        col[i] = letters[n + j]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    return "..." + "".join(row + col) + "->..." + "".join(out), math.prod(dims[i] for i in keep)


def _ptrace_mat(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace over the factors not in ``keep``, positions in increasing order, of a matrix or of a stack.

    Every entry sums its terms in one order, so the trace of an exactly Hermitian matrix is exactly Hermitian.
    """
    dims = tuple(dims)
    subscripts, side = _ptrace_plan(dims, tuple(keep))
    lead = mat.shape[:-2]
    return np.einsum(subscripts, mat.reshape(lead + dims + dims)).reshape(lead + (side, side))


def _reduced_stack(
    mats: np.ndarray, dims: Sequence[int], keep: Sequence[int], tol: float, lo: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray | None]:
    """Partial traces of a stack of exactly Hermitian states validated at tol, each proven valid or validated.

    lo holds the states' smallest eigenvalues, or is one float for a stack of one.
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
    reduced = _ptrace_mat(mats, dims, keep)
    traced = mats.shape[-1] // reduced.shape[-1]
    spare = 5 * tol
    lowest = lo if isinstance(lo, float) else lo.min()  # np.float64 is a float
    if spare >= 3 * traced * mats.shape[-1] * _EPS and lowest * traced >= -spare:
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
    keep = sorted(_check_positions(keep, len(_checked_instance(rho, DensityMatrix, "state").dims), "keep"))
    reduced, spectra = _reduced_stack(rho.mat[None], rho.dims, keep, rho.tol, rho._min_eig)
    dims = tuple(rho.dims[i] for i in keep)
    return DensityMatrix._proven(reduced[0], dims, rho.tol, None if spectra is None else spectra[0])


def _ptranspose_mat(mat: np.ndarray, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose the factor at position subsystem of a square matrix or of each matrix of a stack."""
    dims = tuple(dims)
    n = len(dims)
    lead = mat.shape[:-2]
    t = mat.reshape(lead + dims + dims)
    return t.swapaxes(len(lead) + subsystem, len(lead) + n + subsystem).reshape(mat.shape)


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose one tensor factor; Hermitian and trace-preserving, possibly not PSD."""
    (subsystem,) = _check_positions([subsystem], len(_checked_instance(rho, DensityMatrix, "state").dims), "subsystem")
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
    """Half the trace norm of the difference of two states on one layout; different layouts raise LayoutError."""
    _checked_instance(b, DensityMatrix, "state", _checked_instance(a, DensityMatrix, "state").dims)
    return float(_trace_distances(a.mat[None], b.mat[None])[0])


def _trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the trace norm of each difference of two stacks."""
    return 0.5 * _trace_norms(a - b)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy in bits; eigenvalues below 1e-12 count as zero."""
    return float(_spectral_entropies(_checked_instance(rho, DensityMatrix, "state")._spectrum))


def _entropies(mats: np.ndarray) -> np.ndarray:
    """Spectral entropy in bits of each matrix of a stack of states."""
    return _spectral_entropies(np.linalg.eigvalsh(mats))


def _spectral_entropies(eigs: np.ndarray) -> np.ndarray:
    """Entropy in bits of each spectrum of an (N, n) stack of them."""
    # eigenvalues at or below the clamp contribute 0 * log2(1); no log of zero is taken
    return -np.sum(eigs * np.log2(np.where(eigs > ENTROPY_CLAMP, eigs, 1.0)), axis=-1)


def permutation_operator(d: int, k: int, pi: Sequence[int]) -> np.ndarray:
    """Unitary reordering tensor factors: the factor at position m moves to position pi[m]."""
    d, k = _checked_int(d, "local dimension", 1), _checked_int(k, "factor count", 1)
    # a complex matrix of side d^k, and d^k words of k digits at about 128 bytes a digit as Python objects
    # (92 measured), which bound k at d = 1; _occupation_isometry makes the same estimate
    lg, what = k * math.log2(d), f"permutation operator on dimension {_shown(d)}^{_shown(k)}"
    _require_work(what, 2 * lg, max(4 + 2 * lg, 7 + lg + math.log2(k)))
    if not np.iterable(pi):
        raise ValidationError(f"permutation must be a sequence of factor positions, got {_shown(pi)}")
    pi = tuple(_checked_int(i, "permutation entry", None) for i in pi)
    if len(pi) != k or sorted(pi) != list(range(k)):
        raise ValidationError(f"permutation {pi} is not a bijection on 0..{k - 1}")
    place = d ** np.arange(k - 1, -1, -1)  # the place value of each factor's digit in a basis index
    digits = np.arange(d**k)[:, None] // place % d
    w = np.zeros((d**k, d**k), dtype=complex)
    w[digits @ place[list(pi)], np.arange(d**k)] = 1.0  # the digit of factor m moves to place pi[m]
    return w


def _require_bipartite(rho: DensityMatrix, what: str = "state") -> tuple[int, int]:
    """The layout (d_A, d_B) of a state on two factors, by the argument rule; other factor counts raise LayoutError."""
    if len(_checked_instance(rho, DensityMatrix, what).dims) != 2:
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
    lg, what = k * math.log2(d), f"symmetric subspace on dimension {_shown(d)}^{_shown(k)}"
    _require_work(what, 2 * lg, max(4 + 2 * lg, 7 + lg + math.log2(k)))
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, word in enumerate(itertools.product(range(d), repeat=k)):
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
    d, r = _checked_int(d, "local dimension", 1), _checked_int(r, "factor count", 1)
    iso = _occupation_isometry(d, r).astype(complex)
    return iso @ iso.T

