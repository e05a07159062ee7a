"""Derived-state criteria: tilde/hat states, verdicts, and separability checks."""

import math
import time

import numpy as np
import pytest

from helpers import (
    kron_derived_mats,
    kron_separability_mats,
    necessary_separability,
    random_bosonic_marginal,
    random_separable,
    random_symmetric_supported,
)
from symext import (
    BOSONIC,
    INCONCLUSIVE,
    SYMMETRIC,
    VIOLATED,
    DensityMatrix,
    ExtensionProblem,
    LayoutError,
    ResourceLimitError,
    MarginalSet,
    ValidationError,
    bell_state,
    bosonic_extension_verdict,
    definetti_gap,
    generalized_coefficients,
    generalized_hat,
    hat_state,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    ppt_test,
    random_density,
    ssa_check,
    sufficient_separability,
    symmetric_extension_verdict,
    tilde_state,
    trace_norm,
    werner_exact_threshold,
    werner_hat_psi,
    werner_state,
    werner_tilde_psi,
    werner_tilde_threshold,
)
from symext.criteria import _derived_mats, _derived_min_pt_eigs, _lift, _min_pt_eigs, _ppt_passes
from symext.linalg import _hermiticity_defects, _reduced_stack, _validated_spectra, hermitize


def test_tilde_fixed_point():
    mm = maximally_mixed([2, 3])
    for k in (1, 2, 7):
        assert np.max(np.abs(tilde_state(mm, k).mat - mm.mat)) < 1e-14


def test_tilde_closed_forms():
    # Werner parameter map psi -> (d + k psi) / (d^2 + k)
    out = tilde_state(werner_state(2, -1.0), 2)
    assert np.max(np.abs(out.mat - werner_state(2, 0.0).mat)) < 1e-12
    # Bell-diagonal map q_i = (1 + k p_i) / (4 + k) at d_B = 2
    out = tilde_state(bell_state([1, 0, 0, 0]), 2)
    assert np.max(np.abs(out.mat - bell_state([0.5, 1 / 6, 1 / 6, 1 / 6]).mat)) < 1e-12


def test_hat_closed_forms():
    out = hat_state(bell_state([0.75, 1 / 12, 1 / 12, 1 / 12]), 2)
    assert np.max(np.abs(out.mat - bell_state([0.5, 1 / 6, 1 / 6, 1 / 6]).mat)) < 1e-12
    # that image sits exactly on the PPT boundary
    from symext import partial_transpose

    assert abs(np.linalg.eigvalsh(partial_transpose(out, 1))[0]) < 1e-12
    mm = maximally_mixed([3, 3])
    assert np.max(np.abs(hat_state(mm, 9).mat - mm.mat)) < 1e-14


def test_hat_k1_always_ppt():
    rng = np.random.default_rng(20)
    from symext import partial_transpose

    for _ in range(50):
        sigma = hat_state(random_density([2, 2], rng), 1)
        assert np.linalg.eigvalsh(partial_transpose(sigma, 1))[0] > -1e-9


def test_derived_states_preserve_a_marginal():
    rng = np.random.default_rng(21)
    for dims in [(2, 2), (3, 2), (2, 3)]:
        rho = random_density(dims, rng)
        rho_a = partial_trace(rho, [0]).mat
        for k in (1, 2, 5):
            for derived in (tilde_state(rho, k), hat_state(rho, k)):
                assert np.max(np.abs(partial_trace(derived, [0]).mat - rho_a)) < 1e-12


@pytest.mark.parametrize(
    "largest,past",
    [((1988, 2, 1988), (1989, 2, 1989)), ((10**300, 2, 131), (10**300, 2, 132))],
    ids=["k=r", "k=10^300"],
)
def test_generalized_coefficients_admit_their_largest_case_in_time_and_refuse_the_next(largest, past):
    # the exact binomials grow about as r^2.6: r = 10,000 took 19 s, and (10^6, 2, 10^6) did not return in 2
    # minutes.  The work rule estimates (r + 1) Karatsuba products of r log2(d + k + r) bits before any is formed
    start = time.perf_counter()
    p = generalized_coefficients(*largest)
    assert time.perf_counter() - start < 2.0
    assert np.all(p >= 0) and abs(p.sum() - 1.0) < 1e-12
    for refused in (past, (10**6, 2, 10**6)):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"above the budget of 2\^34 operations and 2\^28 bytes$"):
            generalized_coefficients(*refused)
        assert time.perf_counter() - start < 0.1


def test_werner_maps_refuse_a_denominator_past_the_float_range():
    # d^2 + k and d + k are exact ints that may pass the float range though d and k do not: they are refused
    # by the real rule, where the float-by-int division raised a raw OverflowError.  The formula is not
    # re-associated, so psi = -1.5 still maps to 0 exactly
    with pytest.raises(ValidationError, match=r"^tilde denominator d\^2 \+ k must lie in \[1, inf\), got 2\^1328\.8$"):
        werner_tilde_psi(10**200, 1, 0.5)
    with pytest.raises(ValidationError, match=r"^hat denominator d \+ k must lie in \[1, inf\), got 2\^1024\.2$"):
        werner_hat_psi(10**308, 10**308, 0.5)
    assert werner_tilde_psi(3, 2, -1.5) == 0.0
    assert werner_tilde_psi(10**100, 1, 0.5) == pytest.approx(1e-100, rel=1e-15)
    assert werner_hat_psi(10**307, 10**307, 0.5) == pytest.approx(0.25, rel=1e-15)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_werner_covariance(d, k):
    for psi in np.linspace(-1.0, 1.0, 9):
        rho = werner_state(d, float(psi))
        tilde_direct = tilde_state(rho, k)
        tilde_map = werner_state(d, werner_tilde_psi(d, k, float(psi)))
        assert np.max(np.abs(tilde_direct.mat - tilde_map.mat)) < 1e-12
        hat_direct = hat_state(rho, k)
        hat_map = werner_state(d, werner_hat_psi(d, k, float(psi)))
        assert np.max(np.abs(hat_direct.mat - hat_map.mat)) < 1e-12


def test_generalized_coefficients_values():
    assert np.allclose(generalized_coefficients(1, 2, 1), [2 / 3, 1 / 3], atol=1e-15)
    assert np.allclose(generalized_coefficients(2, 2, 1), [0.5, 0.5], atol=1e-15)
    for k in range(1, 7):
        for d in range(2, 5):
            for r in range(1, min(k, 3) + 1):
                p = generalized_coefficients(k, d, r)
                assert np.all(p >= 0)
                assert abs(p.sum() - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        generalized_coefficients(1, 2, 2)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_generalized_hat_r1_reduction(d, k):
    rng = np.random.default_rng(100 * d + k)
    for _ in range(5):
        rho = random_density((2, d), rng)
        assert np.max(np.abs(generalized_hat(rho, k).mat - hat_state(rho, k).mat)) < 1e-12


def test_generalized_hat_r2_validity():
    rng = np.random.default_rng(23)
    # maximally mixed A tensor a symmetric-supported 2-factor B block
    sym_b = random_symmetric_supported(2, 2, rng)
    rho = DensityMatrix(np.kron(np.eye(2) / 2, sym_b.mat), (2, 2, 2))
    out = generalized_hat(rho, 2)
    assert abs(np.trace(out.mat).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out.mat)[0] > -1e-9

    # marginal of an actual bosonic global state, r=2, k=3
    marg = random_bosonic_marginal(2, 2, 3, 2, rng)
    out = generalized_hat(marg, 3)
    assert np.linalg.eigvalsh(out.mat)[0] > -1e-9
    # output B block is supported on the symmetric subspace
    from symext import symmetric_projector

    proj = np.kron(np.eye(2), symmetric_projector(2, 2))
    assert np.max(np.abs(proj @ out.mat @ proj - out.mat)) < 1e-10


def test_generalized_hat_at_the_guard():
    # r = 8 B qubits: the compression goes through I (x) V, not an 8!-term projector
    rng = np.random.default_rng(26)
    marg = random_bosonic_marginal(2, 2, 8, 8, rng)
    start = time.perf_counter()
    out = generalized_hat(marg, 8)
    elapsed = time.perf_counter() - start
    assert abs(np.trace(out.mat).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out.mat)[0] > -1e-9
    assert elapsed < 2.0


def test_generalized_hat_errors():
    rng = np.random.default_rng(24)
    with pytest.raises(ValidationError, match="symmetric subspace"):
        generalized_hat(random_density((2, 2, 2), rng), 2)
    with pytest.raises(LayoutError):
        generalized_hat(maximally_mixed([2, 2, 3]), 2)
    with pytest.raises(ValidationError):
        generalized_hat(maximally_mixed([2, 2]), 0)


def test_bipartite_layout_required():
    # one helper refuses every input that is not on two factors, with one wording
    tri = maximally_mixed([2, 2, 2])
    for op in (
        lambda r: tilde_state(r, 2),
        lambda r: hat_state(r, 2),
        lambda r: definetti_gap(r, 2),
        sufficient_separability,
        necessary_separability,
        lambda r: ExtensionProblem(r, 2),
        lambda r: MarginalSet([r, r]),
        lambda r: ssa_check(r, r),
    ):
        with pytest.raises(LayoutError, match=r"^expected a bipartite layout, got \(2, 2, 2\)$"):
            op(tri)


def test_ppt_test_verdicts():
    bell = ppt_test(bell_state([1, 0, 0, 0]))
    assert bell.status == VIOLATED
    assert abs(bell.witness["min_pt_eig"] + 0.5) < 1e-12
    assert bell.witness["exact"] == 1.0

    mixed = ppt_test(maximally_mixed([2, 2]))
    assert mixed.status == INCONCLUSIVE

    werner33 = ppt_test(werner_state(3, -0.5))
    assert werner33.status == VIOLATED
    assert werner33.witness["exact"] == 0.0  # 3x3 layout: PPT relaxation only

    boundary = ppt_test(hat_state(bell_state([0.75, 1 / 12, 1 / 12, 1 / 12]), 2))
    assert boundary.status == INCONCLUSIVE
    assert boundary.witness.get("boundary") == 1.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (4, 2)])
def test_ppt_test_reads_the_stacked_kernel_bit_for_bit(dims):
    # ppt_test calls _min_pt_eigs; its value is the eigensolve of the single partial transpose it replaced
    rng = np.random.default_rng(sum(dims))
    for _ in range(20):
        rho = random_density(dims, rng)
        for cut in range(len(dims)):
            lo = float(np.linalg.eigvalsh(hermitize(partial_transpose(rho, cut)))[0])
            assert ppt_test(rho, cut).witness["min_pt_eig"] == lo


def test_symmetric_verdict_routing():
    bell2 = symmetric_extension_verdict(ExtensionProblem(bell_state([1, 0, 0, 0]), 2, SYMMETRIC))
    assert bell2.status == VIOLATED
    assert bell2.criterion == "hat-ppt"  # two-qubit k=2 routes through the stronger hat test

    w = symmetric_extension_verdict(ExtensionProblem(werner_state(2, -0.5), 3, SYMMETRIC))
    assert w.status == INCONCLUSIVE  # tilde threshold -2/3 is not crossed at -0.5
    assert w.criterion == "tilde-ppt"

    with pytest.raises(ValidationError):
        symmetric_extension_verdict(ExtensionProblem(bell_state([1, 0, 0, 0]), 2, BOSONIC))


# the Werner closed forms as functions of (d, k)
WERNER_CLOSED_FORMS = (
    werner_tilde_threshold,
    werner_exact_threshold,
    lambda d, k: werner_tilde_psi(d, k, 0.1),
    lambda d, k: werner_hat_psi(d, k, 0.1),
)


def test_extension_counts_must_be_integers():
    rho = bell_state([0.7, 0.1, 0.1, 0.1])
    bad = (2.5, 3.0, True, "3", None, 0, -2, np.int64(0))
    integer = "must be an integer >= 1"
    for k in bad:
        with pytest.raises(ValidationError, match=f"extension count {integer}"):
            ExtensionProblem(rho, k)
        for derived in (tilde_state, hat_state, definetti_gap):
            with pytest.raises(ValidationError, match=f"extension count {integer}"):
                derived(rho, k)
        with pytest.raises(ValidationError, match=f"k {integer}"):
            generalized_hat(rho, k)
        with pytest.raises(ValidationError, match=f"k {integer}"):
            generalized_coefficients(k, 2, 1)
        with pytest.raises(ValidationError, match=f"r {integer}"):
            generalized_coefficients(3, 2, k)
        for werner in WERNER_CLOSED_FORMS:
            with pytest.raises(ValidationError, match=f"extension count {integer}"):
                werner(2, k)
    for d in (2.5, True, "2", None, 1):
        with pytest.raises(ValidationError, match="d must be an integer >= 2"):
            generalized_coefficients(3, d, 1)
        for werner in WERNER_CLOSED_FORMS + (lambda d, k: werner_state(d, 0.1),):
            with pytest.raises(ValidationError, match="local dimension must be an integer >= 2"):
                werner(d, 2)
    # numpy integers are integers, stored as int
    problem = ExtensionProblem(rho, np.int64(3))
    assert type(problem.k) is int and problem == ExtensionProblem(rho, 3)
    assert symmetric_extension_verdict(problem).witness["k"] == 3.0
    assert np.array_equal(tilde_state(rho, np.int64(3)).mat, tilde_state(rho, 3).mat)
    assert np.array_equal(generalized_coefficients(np.int64(3), np.int64(2), np.int64(1)), generalized_coefficients(3, 2, 1))


def test_separable_states_never_violated():
    rng = np.random.default_rng(25)
    for _ in range(10):
        rho = random_separable((2, 2), rng)
        for k in (1, 2, 3, 5):
            v = symmetric_extension_verdict(ExtensionProblem(rho, k, SYMMETRIC))
            assert v.status == INCONCLUSIVE
            v = bosonic_extension_verdict(ExtensionProblem(rho, k, BOSONIC))
            assert v.status == INCONCLUSIVE


def test_bosonic_verdict_bell_condition():
    violated = bosonic_extension_verdict(ExtensionProblem(bell_state([0.8, 0.2, 0, 0]), 2, BOSONIC))
    assert violated.status == VIOLATED
    interior = bosonic_extension_verdict(ExtensionProblem(bell_state([0.7, 0.1, 0.1, 0.1]), 2, BOSONIC))
    assert interior.status == INCONCLUSIVE
    mixed = bosonic_extension_verdict(ExtensionProblem(maximally_mixed([2, 2]), 100, BOSONIC))
    assert mixed.status == INCONCLUSIVE


def test_violation_monotone_in_k():
    # larger k is a stronger requirement: once violated, stays violated
    for d in (2, 3):
        for psi in np.linspace(-1.0, -0.05, 12):
            statuses = [
                symmetric_extension_verdict(
                    ExtensionProblem(werner_state(d, float(psi)), k, SYMMETRIC)
                ).status
                for k in (3, 4, 5, 6)
            ]
            first = next((i for i, s in enumerate(statuses) if s == VIOLATED), None)
            if first is not None:
                assert all(s == VIOLATED for s in statuses[first:])
    for p1 in np.linspace(0.55, 1.0, 10):
        p = [p1, 1 - p1, 0, 0]
        statuses = [
            bosonic_extension_verdict(ExtensionProblem(bell_state(p), k, BOSONIC)).status
            for k in (1, 2, 3, 4, 5)
        ]
        first = next((i for i, s in enumerate(statuses) if s == VIOLATED), None)
        if first is not None:
            assert all(s == VIOLATED for s in statuses[first:])


def test_definetti_gap_values():
    result = definetti_gap(bell_state([1, 0, 0, 0]), 2)
    assert abs(result.gap - 1.0) < 1e-10
    assert abs(result.bound - 4 / 3) < 1e-10

    mm = maximally_mixed([2, 2])
    for k in (1, 3, 10):
        assert definetti_gap(mm, k).gap < 1e-12

    rng = np.random.default_rng(26)
    assert definetti_gap(random_density((3, 3), rng), 5).gap <= 9 / 7 + 1e-12
    for _ in range(100):
        d_b = int(rng.integers(2, 4))
        k = int(rng.integers(1, 8))
        result = definetti_gap(random_density((2, d_b), rng), k)
        assert result.gap <= result.bound + 1e-12


def test_definetti_gap_is_the_direct_subtraction():
    # the closed form against the trace norm of rho minus its tilde state
    rng = np.random.default_rng(29)
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rho = random_density(dims, rng)
        for k in range(1, 51):
            direct = trace_norm(rho.mat - tilde_state(rho, k).mat)
            result = definetti_gap(rho, k)
            assert abs(result.gap - direct) <= 1e-12 * direct
            assert result.bound == 2 * dims[1] ** 2 / (dims[1] ** 2 + k)


def test_separability_conditions():
    assert sufficient_separability(maximally_mixed([2, 2]))
    assert necessary_separability(maximally_mixed([2, 2]))
    bell = bell_state([1, 0, 0, 0])
    assert not sufficient_separability(bell)
    assert not necessary_separability(bell)

    rng = np.random.default_rng(27)
    for _ in range(50):
        sigma = hat_state(random_density([2, 2], rng), 1)
        assert sufficient_separability(sigma)
        # the sufficient condition implies PPT
        assert ppt_test(sigma).status == INCONCLUSIVE
    for _ in range(50):
        assert necessary_separability(random_separable((2, 2), rng))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_definetti_gap_and_sufficient_separability_run_one_eigensolve(monkeypatch, dims):
    rho = random_density(dims, np.random.default_rng(31))
    side = dims[0] * dims[1]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append(a.shape) or eigvalsh(a, *args))
    # rho_A is proven valid from rho's smallest eigenvalue: only the lifted matrix is solved
    definetti_gap(rho, 3)
    assert calls == [(1, side, side)]
    calls.clear()
    sufficient_separability(rho)
    assert calls == [(side, side)]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_stacked_derived_states_match_batch_of_one(dims):
    rng = np.random.default_rng(sum(dims))
    states = [random_density(dims, rng) for _ in range(20)]
    # mix in entangled pure states so both verdicts occur
    states += [DensityMatrix(np.outer(v, v.conj()) / np.vdot(v, v).real, dims)
               for v in rng.standard_normal((5, dims[0] * dims[1])) + 0j]
    stack = np.array([rho.mat for rho in states])
    min_eigs = np.array([rho._min_eig for rho in states])
    a = _reduced_stack(stack, dims, [0], 1e-10, min_eigs)[0]
    for k in (1, 2, 5):
        for flavor, single in ((SYMMETRIC, tilde_state), (BOSONIC, hat_state)):
            derived, _ = _validated_spectra(_derived_mats(stack, a, k, flavor), 1e-10)
            lo = _min_pt_eigs(derived, dims)
            kernel_lo = _derived_min_pt_eigs(stack, a, k, flavor)
            assert np.array_equal(kernel_lo, lo)
            passes = _ppt_passes(kernel_lo)
            for i, rho in enumerate(states):
                one = single(rho, k)
                assert np.max(np.abs(derived[i] - one.mat)) < 1e-12
                verdict = ppt_test(one)
                assert abs(lo[i] - verdict.witness["min_pt_eig"]) < 1e-12
                assert passes[i] == (verdict.status == INCONCLUSIVE)
                if flavor == BOSONIC:
                    extension = bosonic_extension_verdict(ExtensionProblem(rho, k, BOSONIC))
                    assert extension.witness["min_pt_eig"] == kernel_lo[i]
    for cut in (0, 1):
        lo = _min_pt_eigs(stack, dims, cut)
        for i, rho in enumerate(states):
            assert abs(lo[i] - ppt_test(rho, cut).witness["min_pt_eig"]) < 1e-12


def _random_stack(dims, n, rng, dtype):
    """n validated Ginibre states on a bipartite layout, as a real or complex stack, and their smallest eigenvalues."""
    side = dims[0] * dims[1]
    g = rng.standard_normal((n, side, side))
    if dtype is complex:
        g = g + 1j * rng.standard_normal((n, side, side))
    mats = g @ g.conj().swapaxes(1, 2)
    stack, spectra = _validated_spectra(mats / np.trace(mats, axis1=1, axis2=2).real[:, None, None], 1e-10)
    return stack, spectra[:, 0]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dims", [(d_a, d_b) for d_a in range(1, 5) for d_b in range(1, 5)], ids=str)
def test_derived_states_match_the_kronecker_formula_bit_for_bit(dims, dtype):
    # the in-place lift adds the same terms in another order: addition commutes, and x + 0 = x
    rng = np.random.default_rng(dims[0] * 10 + dims[1])
    for n in (1, 7, 256):
        stack, lo = _random_stack(dims, n, rng, dtype)
        a = _reduced_stack(stack, dims, [0], 1e-10, lo)[0]
        for k in (1, 2, 3, 10):
            for flavor in (SYMMETRIC, BOSONIC):
                reference = kron_derived_mats(stack, dims, k, flavor, 1e-10)
                derived = _derived_mats(stack, a, k, flavor)
                assert derived.dtype == reference.dtype and np.array_equal(derived, reference)
                # the verdict kernel matches the reference validated again, as it once was
                expected = _min_pt_eigs(_validated_spectra(reference, 1e-10)[0], dims)
                assert np.array_equal(_derived_min_pt_eigs(stack, a, k, flavor), expected)


@pytest.mark.parametrize("dims", [(d_a, d_b) for d_a in range(1, 5) for d_b in range(1, 5)], ids=str)
def test_separability_lifts_match_the_kronecker_formula_bit_for_bit(dims):
    rng = np.random.default_rng(100 + dims[0] * 10 + dims[1])
    d_b = dims[1]
    for _ in range(5):
        rho = random_density(dims, rng)
        gap_mat, sufficient_mat, necessary_mat = kron_separability_mats(rho)
        rho_a = partial_trace(rho, [0]).mat
        assert np.array_equal(_lift(d_b, rho.mat, -1, rho_a, d_b), gap_mat)
        assert np.array_equal(_lift(d_b + 1, rho.mat, -1, rho_a, d_b), sufficient_mat)
        assert np.array_equal(_lift(-1, rho.mat, 1, rho_a, d_b), necessary_mat)
        for k in (1, 3, 50):
            assert definetti_gap(rho, k).gap == d_b * trace_norm(gap_mat) / (d_b**2 + k)
        assert sufficient_separability(rho) == (np.linalg.eigvalsh(sufficient_mat)[0] >= -1e-9)
        assert necessary_separability(rho) == (np.linalg.eigvalsh(necessary_mat)[0] >= -1e-9)


EDGE_TOL = 1e-10


def _unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _spectrum(n, rng, total, low=None):
    """A random spectrum of n entries summing to ``total``; with ``low`` given and n > 1, its smallest entry is low."""
    spec = rng.random(n) + 0.01
    if low is None or n == 1:
        return spec * (total / spec.sum())
    spec[0] = 0.0
    spec *= (total - low) / spec.sum()
    spec[0] = low
    return spec


def _edge_states(dims, rng, n):
    """Stacks of n states that validation admits at its edges, by name.

    rho at lambda_min = -10 tol; rho_A at its own -10 tol edge, with rho =
    rho_A x I / d_B; both at once, with rho = rho_A x |b><b|; and
    Tr rho = 1 + tol or 1 - tol.  Candidates lie within rounding of an edge,
    so about half are refused; only admitted states are kept.
    """
    d_a, d_b = dims
    side = d_a * d_b
    edge = -10 * EDGE_TOL

    def draw(name):
        if name in ("rho_A", "both"):
            frame = np.kron(_unitary(d_a, rng), _unitary(d_b, rng))
            b = np.eye(d_b) / d_b if name == "rho_A" else np.diag(np.eye(d_b)[0])
            return frame @ np.kron(np.diag(_spectrum(d_a, rng, 1.0, edge)), b) @ frame.conj().T
        u = _unitary(side, rng)
        total = {"trace+": 1.0 + EDGE_TOL, "trace-": 1.0 - EDGE_TOL}.get(name, 1.0)
        spec = _spectrum(side, rng, total, edge if name == "rho" else None)
        return (u * spec) @ u.conj().T

    stacks = {}
    for name in ("rho", "rho_A", "both", "trace+", "trace-"):
        kept = []
        while len(kept) < n:
            try:
                mat, spectra = _validated_spectra(draw(name)[None], EDGE_TOL)
                _reduced_stack(mat, dims, [0], EDGE_TOL, spectra[:, 0])
            except ValidationError:
                continue
            kept.append((mat[0], spectra[0, 0]))
        stacks[name] = tuple(map(np.array, zip(*kept)))
    return stacks


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 1), (3, 1)])
def test_derived_states_of_edge_states_pass_validation(dims):
    # the bound in _derived_mats: the validation they no longer get could not fire, except by
    # rounding where the bound has no margin: |Tr rho - 1| = tol, and the PSD bound at d_B = 1
    eps = np.finfo(float).eps
    for name, (stack, lo) in _edge_states(dims, np.random.default_rng(sum(dims)), 30).items():
        a = _reduced_stack(stack, dims, [0], EDGE_TOL, lo)[0]
        for k in (1, 2, 10, 10**6):
            for flavor in (SYMMETRIC, BOSONIC):
                derived = _derived_mats(stack, a, k, flavor)
                if name.startswith("trace") or dims[1] == 1:
                    assert not _hermiticity_defects(derived).any()
                    deviation = np.abs(np.trace(derived, axis1=1, axis2=2) - 1)
                    assert deviation.max() <= EDGE_TOL + 4 * eps
                    assert np.linalg.eigvalsh(derived)[:, 0].min() >= -10 * EDGE_TOL - 4 * eps
                else:
                    _validated_spectra(derived, EDGE_TOL)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_states_built_from_trace_edge_states_are_never_refused(dims):
    # tilde, hat, rho_A and the averaged marginal are valid by proof and not validated again; the
    # validation they got refused about one call in seven here, by an ulp past |Tr - 1| = tol
    from symext import MarginalSet, average_marginals

    rng = np.random.default_rng(sum(dims) + 70)
    edges = _edge_states(dims, rng, 12)
    b_frame = np.kron(np.eye(dims[0]), _unitary(dims[1], rng))  # a unitary on B keeps rho_A
    for name in ("trace+", "trace-"):
        for mat in edges[name][0]:
            rho = DensityMatrix(mat, dims, tol=EDGE_TOL)
            built = [f(rho, k) for f in (tilde_state, hat_state) for k in (1, 2, 10)]
            built += [partial_trace(rho, [0]), partial_trace(rho, [1])]
            try:
                twin = DensityMatrix(b_frame @ mat @ b_frame.conj().T, dims, tol=EDGE_TOL)
            except ValidationError:  # rounding can carry the rotated trace past the edge
                twin = rho
            built += [average_marginals(MarginalSet(pair)).marginal for pair in ([rho, twin], [rho, twin, twin])]
            for state in built:
                assert state.tol == EDGE_TOL and state._min_eig == state._spectrum[0]
                assert abs(np.trace(state.mat) - 1) <= EDGE_TOL + 8 * np.finfo(float).eps


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_extension_verdict_runs_one_eigensolve(monkeypatch, dims):
    problem = ExtensionProblem(random_density(dims, np.random.default_rng(30)), 3)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append(a.shape) or eigvalsh(a, *args))
    symmetric_extension_verdict(problem)
    # only the derived state's partial transpose: rho_A is proven valid from rho's smallest eigenvalue,
    # and the derived state is valid by construction
    side = dims[0] * dims[1]
    assert calls == [(1, side, side)]


def _with_min_eig(dims, low, rng):
    """A state on a bipartite layout with a random frame and smallest eigenvalue low."""
    side = dims[0] * dims[1]
    q, _ = np.linalg.qr(rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)))
    spec = rng.random(side) + 0.1
    spec[0] = 0.0
    spec *= (1.0 - low) / spec.sum()
    spec[0] = low
    return DensityMatrix((q * spec) @ q.conj().T, dims)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_reduced_state_is_solved_only_where_the_proof_does_not_reach(monkeypatch, dims):
    # d_B lambda_min(rho) >= -5 tol proves rho_A >= -10 tol with room for rounding: no rho_A eigensolve.
    # Past it, rho_A is validated as before (and here passes, since rho_A >= d_B lambda_min > -10 tol).
    rng = np.random.default_rng(dims[0] * 10 + dims[1])
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append(a.shape[-1]) or eigvalsh(a, *args))
    edge = -5e-10 / dims[1]
    for scale, solves in [(0.0, 1), (0.5, 1), (0.999, 1), (1.001, 2), (1.9, 2)] + [(None, 1)] * 20:
        low = rng.uniform(0.0, 0.01) if scale is None else scale * edge
        rho = _with_min_eig(dims, low, rng)
        assert scale is None or abs(rho._min_eig - low) < 1e-12
        for flavor, verdict in ((SYMMETRIC, symmetric_extension_verdict), (BOSONIC, bosonic_extension_verdict)):
            calls.clear()
            verdict(ExtensionProblem(rho, 3, flavor))
            assert len(calls) == solves and calls[-1] == rho.side
            if solves == 2:
                assert calls[0] == dims[0]
    # at tol = 0 the proof leaves no room for rounding, so rho_A is validated
    side = dims[0] * dims[1]
    dyadic = np.diag([2.0**-i for i in range(1, side)] + [2.0 ** (1 - side)])  # trace exactly 1
    problem = ExtensionProblem(DensityMatrix(dyadic, dims, tol=0.0), 3)
    calls.clear()
    symmetric_extension_verdict(problem)
    assert calls == [dims[0], dims[0] * dims[1]]


def test_reduced_state_past_the_proof_is_refused_everywhere():
    from symext import MarginalSet, consistency_verdict, ssa_check

    # eigenvalue -0.9e-9 at |00> and |01>: admitted, but rho_A is -1.8e-9 on |0>, and
    # d_B lambda_min(rho) = -1.8e-9 is below -5 tol, so rho_A is validated and refused
    rho = DensityMatrix(np.diag([-0.9e-9, -0.9e-9, 0.5 + 0.9e-9, 0.5 + 0.9e-9]), (2, 2))
    assert rho._min_eig == -0.9e-9
    good = werner_state(2, 0.3)
    stack = [good, rho, good]
    mats = np.array([s.mat for s in stack])
    calls = [
        lambda: symmetric_extension_verdict(ExtensionProblem(rho, 2)),
        lambda: symmetric_extension_verdict(ExtensionProblem(rho, 3)),
        lambda: bosonic_extension_verdict(ExtensionProblem(rho, 3, BOSONIC)),
        lambda: tilde_state(rho, 3),
        lambda: hat_state(rho, 3),
        lambda: partial_trace(rho, [0]),
        lambda: consistency_verdict(MarginalSet([rho, rho])),
        lambda: consistency_verdict(MarginalSet([good, rho])),
        lambda: ssa_check(good, rho),
        # a sweep-style stack: the first failing state names the error
        lambda: _derived_min_pt_eigs(
            mats, _reduced_stack(mats, (2, 2), [0], 1e-10, np.array([s._min_eig for s in stack]))[0], 3, SYMMETRIC
        ),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"^minimal eigenvalue -1\.800e-09 is below the PSD tolerance -1e-09$"):
            call()
