"""Core tensor-space linear algebra."""

import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    Admitted,
    admitted,
    brute_force_symmetric_projector,
    random_separable,
    random_symmetric_supported,
    twirl_channel,
)
from symext import (
    DensityMatrix,
    LayoutError,
    ResourceLimitError,
    ValidationError,
    bell_state,
    hermitian_eigs,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    permutation_operator,
    pure_state,
    random_density,
    symmetric_projector,
    tensor_product,
    trace_norm,
    von_neumann_entropy,
    werner_state,
)
from symext.linalg import (
    _entropies,
    _occupation_isometry,
    _ptrace_mat,
    _ptranspose_mat,
    _trace_norms,
    _validated_spectra,
    hermitize,
)


def test_density_matrix_validation():
    good = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert good.dims == (2, 2) and good.side == 4

    with pytest.raises(ValidationError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]), (2,))
    with pytest.raises(ValidationError, match="trace deviates"):
        DensityMatrix(np.eye(2) * 0.45, (2,))
    with pytest.raises(ValidationError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))
    with pytest.raises(LayoutError):
        DensityMatrix(np.eye(4) / 4, (2, 3))
    with pytest.raises(ValidationError, match="non-finite"):
        DensityMatrix(np.diag([np.nan, 1.0]), (2,))


def _error_alone(mat):
    with pytest.raises(ValidationError) as err:
        DensityMatrix(mat)
    return str(err.value)


BROKEN_STATES = {
    "non-finite": np.diag([np.inf, 0.0]).astype(complex),
    "not Hermitian": np.array([[0.5, 1e-3], [0.0, 0.5]], dtype=complex),
    "trace": np.eye(2, dtype=complex) * 0.45,
    "eigenvalue": np.diag([1.5, -0.5]).astype(complex),
    # finite entries whose sums overflow: M + M^dag, and the trace
    "huge off-diagonal": np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex),
    "huge entries": np.full((2, 2), 1e308, dtype=complex),
}


@pytest.mark.parametrize("kind", BROKEN_STATES)
def test_validate_stack_reports_the_first_failing_state(kind):
    rng = np.random.default_rng(11)
    stack = np.array([random_density([2], rng).mat for _ in range(5)])
    stack[3] = BROKEN_STATES[kind]
    # a later state that fails another check must not mask the fourth
    stack[4] = BROKEN_STATES["non-finite" if kind != "non-finite" else "eigenvalue"]
    with pytest.raises(ValidationError) as err:
        _validated_spectra(stack, 1e-10)
    assert str(err.value) == _error_alone(stack[3])
    # the valid prefix passes and comes back as its Hermitian parts
    out, _ = _validated_spectra(stack[:3], 1e-10)
    for mat, got in zip(stack[:3], out):
        assert np.array_equal(got, DensityMatrix(mat).mat)


@pytest.mark.parametrize(
    "mat,message",
    [
        (np.array([[0.5, 1e308], [1e308, 0.5]]), "minimal eigenvalue -1.000e+308 is below the PSD tolerance -1e-09"),
        (np.full((4, 4), 1e308), "trace deviates by inf"),
        (np.array([[0.5, 1e308], [-1e308, 0.5]]), "state is not Hermitian: max |M - M^dag| entry inf"),
        (np.diag([1e308, 1e308, -1e308, -1e308]), "trace deviates by nan"),
    ],
)
def test_density_matrix_refuses_huge_finite_entries_quietly(mat, message):
    # sums of such entries overflow; the overflow must refuse the state, with no warning and no raw LinAlgError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            DensityMatrix(mat)
    assert str(err.value) == message


def test_hermitize_halves_first_bit_exactly():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    assert np.array_equal(hermitize(m), (m + m.conj().swapaxes(-1, -2)) / 2)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-12])
def test_density_matrix_refuses_bad_tolerance(tol):
    with pytest.raises(ValidationError, match="tolerance must be finite and >= 0"):
        DensityMatrix(np.diag([1.5, -0.5]), (2,), tol=tol)
    with pytest.raises(ValidationError, match="tolerance"):
        DensityMatrix(np.eye(2) / 2, (2,), tol=tol)


def test_density_matrix_zero_tolerance_accepts_exact_states():
    assert DensityMatrix(np.diag([1.0, 0.0]), (2,), tol=0.0).tol == 0.0
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix(np.diag([0.5, 0.5 + 1e-15]), (2,), tol=0.0)


def _refused_quietly(error, build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            build()
    return str(err.value)


def test_maximally_mixed_refuses_a_dimension_that_is_not_an_integer():
    message = _refused_quietly(ValidationError, lambda: maximally_mixed([2.5, 2]))
    assert message == "factor dimension must be an integer >= 1, got 2.5"


def test_random_density_refuses_a_dimension_that_is_not_an_integer():
    message = _refused_quietly(ValidationError, lambda: random_density([2.5, 2], np.random.default_rng(0)))
    assert message == "factor dimension must be an integer >= 1, got 2.5"


def test_maximally_mixed_refuses_a_side_beyond_the_guard():
    # the side 10^12 is refused before any allocation
    message = _refused_quietly(ResourceLimitError, lambda: maximally_mixed([10**6, 10**6]))
    assert message == (
        "maximally_mixed needs 2^79.7 operations and 2^83.7 bytes, above the budget of 2^34 operations and 2^28 bytes"
    )
    assert _refused_quietly(ResourceLimitError, lambda: random_density([64, 65], np.random.default_rng(0)))


_MIXED_20, _MIXED_129, _MIXED_29, _MIXED_89 = (maximally_mixed([n]) for n in (20, 129, 29, 89))
_NO_DRAWS = SimpleNamespace(standard_normal=admitted)

# site: (the call at one size, the numpy function of its first large allocation, the largest size the work
# rule admits, one step past it).  Sides 2580 = 20 * 129 and 2581 = 29 * 89 come from two small factors.
WORK_BOUNDARIES = {
    "maximally_mixed": (lambda n: maximally_mixed([n]), "eye", 4096, 4097),
    "maximally_mixed layout": (lambda n: maximally_mixed([64, n]), "eye", 64, 65),
    "random_density": (lambda n: random_density((n,), _NO_DRAWS), None, 2048, 2049),
    "tensor_product": (lambda ab: tensor_product(*ab), "kron", (_MIXED_20, _MIXED_129), (_MIXED_29, _MIXED_89)),
    "pure_state": (lambda n: pure_state(np.ones(n)), "outer", 2580, 2581),
    "werner_state": (lambda d: werner_state(d, 0.5), "zeros", 50, 51),  # one validating eigensolve of side d^2
    "permutation_operator k": (lambda k: permutation_operator(2, k, range(k)), "zeros", 12, 13),
    "permutation_operator d": (lambda d: permutation_operator(d, 2, (1, 0)), "zeros", 64, 65),
    "permutation_operator d=1": (lambda k: permutation_operator(1, k, range(k)), "zeros", 2**21, 2**21 + 1),
    "symmetric subspace k": (lambda k: _occupation_isometry.__wrapped__(2, k), "zeros", 12, 13),
    "symmetric subspace d": (lambda d: _occupation_isometry.__wrapped__(d, 2), "zeros", 64, 65),
    "symmetric subspace d=1": (lambda k: _occupation_isometry.__wrapped__(1, k), "zeros", 2**21, 2**21 + 1),
}


@pytest.mark.parametrize("site", list(WORK_BOUNDARIES))
def test_work_rule_admits_its_largest_case_and_refuses_the_next_before_allocating(site, monkeypatch):
    build, allocator, largest, past = WORK_BOUNDARIES[site]
    if allocator is not None:
        monkeypatch.setattr(np, allocator, admitted)
    with pytest.raises(Admitted):
        build(largest)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"above the budget of 2\^34 operations and 2\^28 bytes$"):
            build(past)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("dims", [(1,), (2,), (2, 2), (3,), (2, 3), (3, 3), (2, 2, 2), (5, 7), (4, 4, 4), (12, 12)])
def test_maximally_mixed_spectrum_is_the_eigensolvers_bit_for_bit(dims):
    # I/d is held with the spectrum 1/d, d times, without an eigensolve; it is what validation would solve
    rho = maximally_mixed(dims)
    side = math.prod(dims)
    assert rho.dims == dims and rho.tol == 1e-10 and rho._min_eig == rho._spectrum[0]
    assert rho.mat.dtype == complex and np.array_equal(rho.mat, np.eye(side) / side)
    assert rho._spectrum.tobytes() == np.linalg.eigvalsh(rho.mat).tobytes()
    assert rho._spectrum.tobytes() == _validated_spectra(rho.mat[None], 1e-10)[1][0].tobytes()
    assert not rho.mat.flags.writeable and not rho._spectrum.flags.writeable


def test_maximally_mixed_at_a_large_side_costs_no_eigensolve():
    # validating I/d of side 2048 took about 3.6 s in a dense eigensolve
    start = time.perf_counter()
    rho = maximally_mixed([32, 64])
    assert time.perf_counter() - start < 1.0
    assert rho.side == 2048 and rho._min_eig == 1 / 2048


def test_tensor_product_of_trace_edge_states_is_refused():
    # each factor is admitted at Tr = 1 + 0.9 tol, but their product's trace is 1 + 1.8 tol:
    # the product is not valid by construction, so it is validated and refused
    edge = DensityMatrix(np.diag([0.5, 0.5 + 0.9e-10]), (2,))
    with pytest.raises(ValidationError, match=r"^trace deviates by 1\.8e-10$"):
        tensor_product(edge, edge)


@pytest.mark.parametrize("vec", [[np.nan, 1, 0, 0], [np.inf, 1, 0, 0], [1e308, 1e308, 0, 0]])
def test_pure_state_refuses_a_vector_without_a_finite_norm(vec):
    # the norm is checked before the division, which would warn
    assert _refused_quietly(ValidationError, lambda: pure_state(vec, (2, 2))).startswith("cannot normalize")


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 3, 2), (3, 2, 2, 2)])
def test_partial_traces_and_transposes_of_exactly_hermitian_states_are_exactly_hermitian(dims):
    # the reduced states and the derived states' partial transposes are solved without hermitize
    rng = np.random.default_rng(sum(dims))
    states = [random_density(dims, rng) for _ in range(4)]
    real = [hermitize(rho.mat.real) for rho in states]
    for stack in (np.array([rho.mat for rho in states]), np.array(real)):
        for r in range(1, len(dims) + 1):
            for keep in itertools.combinations(range(len(dims)), r):
                reduced = _ptrace_mat(stack, dims, keep)
                assert np.array_equal(reduced, reduced.conj().swapaxes(-1, -2)), keep
            for sub in range(len(dims)):
                pt = _ptranspose_mat(stack, dims, sub)
                assert np.array_equal(pt, pt.conj().swapaxes(-1, -2)), sub


def test_stacked_partial_trace_transpose_norm_and_entropy_match_single():
    rng = np.random.default_rng(12)
    dims = (2, 3, 2)
    states = [random_density(dims, rng) for _ in range(6)]
    stack = np.array([rho.mat for rho in states])
    for keep in ([0], [1], [0, 2], [1, 2]):
        got = _ptrace_mat(stack, dims, keep)
        for rho, g in zip(states, got):
            assert np.array_equal(g, _ptrace_mat(rho.mat, dims, keep))
    for sub in range(3):
        got = _ptranspose_mat(stack, dims, sub)
        for rho, g in zip(states, got):
            assert np.array_equal(g, partial_transpose(rho, sub))
    diffs = stack[:3] - stack[3:]
    norms = _trace_norms(diffs)
    for m, got in zip(diffs, norms):
        assert abs(got - float(np.sum(np.abs(np.linalg.eigvalsh(m))))) < 1e-12
    # rank-deficient states put eigenvalues under the entropy clamp
    pure = [pure_state(rng.standard_normal(12), dims) for _ in range(3)]
    entropies = _entropies(np.array([rho.mat for rho in states + pure]))
    for rho, got in zip(states + pure, entropies):
        eigs = np.linalg.eigvalsh(rho.mat)
        eigs = eigs[eigs > 1e-12]
        assert abs(got - float(-np.sum(eigs * np.log2(eigs)))) < 1e-12
        assert von_neumann_entropy(rho) == got


def test_density_matrix_is_read_only():
    rho = maximally_mixed([2, 2])
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 1.0


def test_tensor_product_identities():
    out = tensor_product(maximally_mixed([2]), maximally_mixed([2]))
    assert out.dims == (2, 2)
    assert np.allclose(out.mat, np.eye(4) / 4)

    zero = pure_state([1, 0], (2,))
    one = pure_state([0, 1], (2,))
    proj = tensor_product(zero, one)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.allclose(proj.mat, expected)


def test_tensor_product_against_kron_loop():
    rng = np.random.default_rng(0)
    a = random_density([2], rng)
    b = random_density([2], rng)
    out = tensor_product(a, b)
    # brute-force Kronecker double loop
    expected = np.zeros((4, 4), dtype=complex)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        expected[2 * i + k, 2 * j + l] = a.mat[i, j] * b.mat[k, l]
    assert np.max(np.abs(out.mat - expected)) < 1e-15


def test_partial_trace_product_recovery():
    rng = np.random.default_rng(1)
    for dims in [(2, 2), (2, 3), (3, 2)]:
        a = random_density([dims[0]], rng)
        b = random_density([dims[1]], rng)
        joint = tensor_product(a, b)
        assert np.max(np.abs(partial_trace(joint, [0]).mat - a.mat)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, [1]).mat - b.mat)) < 1e-12


def test_partial_trace_known_marginals():
    bell = bell_state([1, 0, 0, 0])
    assert np.allclose(partial_trace(bell, [0]).mat, np.eye(2) / 2)
    werner = werner_state(2, -0.3)
    assert np.allclose(partial_trace(werner, [0]).mat, np.eye(2) / 2)
    with pytest.raises(LayoutError):
        partial_trace(bell, [2])
    with pytest.raises(LayoutError):
        partial_trace(bell, [])


def test_partial_trace_multi_factor_order():
    rng = np.random.default_rng(2)
    parts = [random_density([2], rng) for _ in range(3)]
    joint = tensor_product(tensor_product(parts[0], parts[1]), parts[2])
    red = partial_trace(joint, [0, 2])
    expected = np.kron(parts[0].mat, parts[2].mat)
    assert np.max(np.abs(red.mat - expected)) < 1e-12
    assert red.dims == (2, 2)


def test_partial_trace_solves_its_reduced_state_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append(a.shape) or eigvalsh(a, *args))
    # at tol = 0 rho_A is validated and keeps the spectrum its validation solved; at the
    # default tol it is proven valid from rho's smallest eigenvalue and solved on its own
    for tol, solved in ((0, [(1, 2, 2)]), (1e-10, [(2, 2)])):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2), tol=tol)
        calls.clear()
        rho_a = partial_trace(rho, [0])
        assert calls == solved
        assert rho_a._spectrum.tobytes() == eigvalsh(rho_a.mat).tobytes()
        assert np.allclose(rho_a.mat, np.diag([0.7, 0.3]), rtol=0, atol=1e-15)


def test_partial_transpose_bell():
    bell = bell_state([1, 0, 0, 0])
    pt = partial_transpose(bell, 1)
    eigs = np.linalg.eigvalsh(pt)
    assert abs(eigs[0] + 0.5) < 1e-12
    assert abs(np.trace(pt) - 1.0) < 1e-12


def test_partial_transpose_involution_and_identity():
    from symext.linalg import _ptranspose_mat

    rng = np.random.default_rng(3)
    rho = random_density([2, 3], rng)
    pt = partial_transpose(rho, 1)
    assert np.max(np.abs(_ptranspose_mat(pt, (2, 3), 1) - rho.mat)) < 1e-15
    assert abs(np.trace(pt) - 1.0) < 1e-12
    assert np.allclose(partial_transpose(maximally_mixed([2, 2]), 1), np.eye(4) / 4)


def test_partial_transpose_separable_is_psd():
    rng = np.random.default_rng(4)
    for dims in [(2, 2), (2, 3), (3, 3)]:
        for _ in range(10):
            rho = random_separable(dims, rng)
            for cut in (0, 1):
                assert np.linalg.eigvalsh(partial_transpose(rho, cut))[0] > -1e-9


def test_hermitian_eigs():
    assert np.allclose(hermitian_eigs(np.eye(4) / 4), [0.25] * 4)
    assert np.allclose(hermitian_eigs(np.diag([0.9, 0.1])), [0.1, 0.9])
    spectrum = hermitian_eigs(bell_state([0.4, 0.3, 0.2, 0.1]).mat)
    assert np.allclose(spectrum, [0.1, 0.2, 0.3, 0.4], atol=1e-12)
    with pytest.raises(ValidationError):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigs_reconstruction():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (g + g.conj().T) / 2
    eigs = hermitian_eigs(h)
    assert abs(eigs.sum() - np.trace(h).real) < 1e-10
    w, v = np.linalg.eigh(h)
    assert np.max(np.abs((v * eigs) @ v.conj().T - h)) < 1e-9


def test_trace_norm():
    rng = np.random.default_rng(6)
    rho = random_density([2, 2], rng)
    assert abs(trace_norm(rho.mat) - 1.0) < 1e-12
    assert trace_norm(rho.mat - rho.mat) == 0.0
    bell = bell_state([1, 0, 0, 0])
    assert abs(trace_norm(bell.mat - np.eye(4) / 4) - 1.5) < 1e-12


@pytest.mark.parametrize(
    "m",
    [np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0]), np.array([[0.0, 1e308], [-1e308, 0.0]])],
    ids=["nan", "inf", "defect-overflow"],
)
def test_trace_norm_and_eigs_refuse_non_finite_entries_and_defects(m):
    # NaN passed the defect test once, and read as zero in the spectrum
    for f in (trace_norm, hermitian_eigs):
        message = _refused_quietly(ValidationError, lambda: f(m))
        assert message == "matrix contains non-finite entries" or message.startswith("matrix is not Hermitian")


def test_trace_norm_refuses_a_sum_beyond_the_float_range():
    m = np.diag([1e308, 1e308])
    assert _refused_quietly(ValidationError, lambda: trace_norm(m)) == "trace norm overflows the float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hermitian_eigs(m).tolist() == [1e308, 1e308]


# Runs one call in a child process capped at 1 GB of address space, so that a guard that
# forms d**k, range(k) or k numpy axes first fails here instead of exhausting the machine.
_GUARD_PROBE = """
import json, resource, sys, time, warnings
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
warnings.simplefilter("error")
import symext
name, args = json.loads(sys.argv[1])
start = time.perf_counter()
try:
    getattr(symext, name)(*args)
except symext.ResourceLimitError as err:
    print(json.dumps([time.perf_counter() - start, str(err)]))
"""


@pytest.mark.parametrize(
    "name, args",
    [
        ("symmetric_projector", [2, 10**6]),
        ("symmetric_projector", [2, 10**9]),
        ("symmetric_projector", [1, 10**8]),
        ("permutation_operator", [2, 10**8, [0]]),
    ],
    ids=lambda v: v if isinstance(v, str) else ",".join(map(str, v)),
)
def test_factor_count_guard_refuses_before_any_power_or_range(name, args):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    probe = [sys.executable, "-c", _GUARD_PROBE, json.dumps([name, args])]
    proc = subprocess.run(probe, capture_output=True, text=True, timeout=30, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    elapsed, message = json.loads(proc.stdout)
    assert elapsed < 0.1
    assert f" on dimension {args[0]}^{args[1]} needs 2^" in message
    assert message.endswith("above the budget of 2^34 operations and 2^28 bytes")


def test_von_neumann_entropy():
    assert abs(von_neumann_entropy(pure_state([1, 0, 0, 0], (2, 2)))) < 1e-12
    assert abs(von_neumann_entropy(maximally_mixed([2, 2])) - 2.0) < 1e-12
    assert abs(von_neumann_entropy(bell_state([0.5, 0.5, 0, 0])) - 1.0) < 1e-12


def test_von_neumann_entropy_reads_the_validation_spectrum(monkeypatch):
    rng = np.random.default_rng(61)
    states = [random_density((2, 3), rng), pure_state(rng.standard_normal(4), (2, 2)), maximally_mixed([3])]
    expected = [float(_entropies(rho.mat[None])[0]) for rho in states]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append(a.shape) or eigvalsh(a, *args))
    # bit for bit the entropy of a fresh solve, from the spectrum DensityMatrix kept, which is read-only
    assert [von_neumann_entropy(rho) for rho in states] == expected
    assert calls == []
    with pytest.raises(ValueError):
        states[0]._spectrum[0] = 1.0


def test_permutation_operator_basics():
    assert np.allclose(permutation_operator(2, 2, (0, 1)), np.eye(4))
    swap = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]
    )
    assert np.allclose(permutation_operator(2, 2, (1, 0)), swap)
    cycle = permutation_operator(2, 3, (1, 2, 0))
    assert np.allclose(cycle @ cycle @ cycle, np.eye(8))
    with pytest.raises(ValidationError):
        permutation_operator(2, 3, (0, 0, 1))
    for d, k in ((2.5, 2), (2, 2.0), (0, 2)):
        with pytest.raises(ValidationError):
            permutation_operator(d, k, (1, 0))
    with pytest.raises(ResourceLimitError):
        permutation_operator(2, 13, tuple(range(13)))


def test_permutation_operator_group_laws():
    rng = np.random.default_rng(7)
    d, k = 2, 4
    perms = [tuple(rng.permutation(k)) for _ in range(5)]
    for pi in perms:
        w = permutation_operator(d, k, pi)
        assert np.max(np.abs(w @ w.conj().T - np.eye(d**k))) < 1e-12
    for pi, sigma in zip(perms, perms[1:]):
        composed = tuple(pi[sigma[m]] for m in range(k))
        lhs = permutation_operator(d, k, pi) @ permutation_operator(d, k, sigma)
        assert np.max(np.abs(lhs - permutation_operator(d, k, composed))) < 1e-12


def test_symmetric_projector_traces():
    assert abs(np.trace(symmetric_projector(2, 2)).real - 3.0) < 1e-12
    assert abs(np.trace(symmetric_projector(3, 2)).real - 6.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_symmetric_projector_properties(d, r):
    proj = symmetric_projector(d, r)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-12
    assert np.max(np.abs(proj - proj.conj().T)) < 1e-12
    assert abs(np.trace(proj).real - math.comb(d + r - 1, r)) < 1e-12
    assert np.max(np.abs(proj - brute_force_symmetric_projector(d, r))) < 1e-12


def test_symmetric_projector_at_the_guard():
    # r = 12 is the largest qubit count the work rule admits; a 12!-term sum would not finish
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    proj = symmetric_projector(2, 12)
    elapsed = time.perf_counter() - start
    assert abs(np.trace(proj).real - 13.0) < 1e-12
    x = rng.standard_normal(2**12) + 1j * rng.standard_normal(2**12)
    px = proj @ x
    assert np.max(np.abs(proj @ px - px)) < 1e-12
    assert elapsed < 2.0


def test_symmetric_projector_guard():
    with pytest.raises(ResourceLimitError):
        symmetric_projector(2, 13)
    for d, r in ((2, 0), (2, 2.5), (2.0, 2), (True, 2)):
        with pytest.raises(ValidationError):
            symmetric_projector(d, r)


def test_twirl_pure_power():
    rng = np.random.default_rng(8)
    vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vec /= np.linalg.norm(vec)
    phi = np.outer(vec, vec.conj())
    rho = DensityMatrix(np.kron(phi, phi), (2, 2))
    out = twirl_channel(rho, 2)
    assert np.max(np.abs(out - (np.eye(2) + 2 * phi) / 4)) < 1e-12


def test_twirl_maximally_mixed_symmetric():
    proj = symmetric_projector(2, 2)
    rho = DensityMatrix(proj / np.trace(proj).real, (2, 2))
    out = twirl_channel(rho, 2)
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-12


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_twirl_matches_single_factor_formula(d, k):
    rng = np.random.default_rng(10 * d + k)
    for _ in range(5):
        rho = random_symmetric_supported(d, k, rng)
        out = twirl_channel(rho, d)
        rho_b = partial_trace(rho, [0]).mat
        assert np.max(np.abs(out - (np.eye(d) + k * rho_b) / (d + k))) < 1e-10


def test_twirl_at_the_guard():
    # k + 1 = 10 factors: the twirl never forms a side-2^10 matrix
    rng = np.random.default_rng(12)
    rho = random_symmetric_supported(2, 9, rng)
    start = time.perf_counter()
    out = twirl_channel(rho, 2)
    elapsed = time.perf_counter() - start
    rho_b = partial_trace(rho, [0]).mat
    assert np.max(np.abs(out - (np.eye(2) + 9 * rho_b) / 11)) < 1e-10
    assert elapsed < 2.0


def test_twirl_rejects_unsupported_state():
    with pytest.raises(ValidationError, match="symmetric subspace"):
        twirl_channel(maximally_mixed([2, 2]), 2)
    with pytest.raises(LayoutError):
        twirl_channel(maximally_mixed([2, 3]), 2)
    with pytest.raises(ResourceLimitError):
        twirl_channel(maximally_mixed([17, 17]), 17)


def test_twirl_refuses_a_dimension_that_is_not_an_integer():
    # 2.0 == 2 and True == 1 would pass the layout comparison
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho, d in ((maximally_mixed([2, 2]), 2.0), (maximally_mixed([1, 1]), True)):
            with pytest.raises(ValidationError, match="local dimension must be an integer"):
                twirl_channel(rho, d)
