"""Input census: each public entry point checks the inputs that enter it, by one integer rule, one real rule, one
layout rule and one argument rule.

A first piece of the adversarial census: integer-valued inputs that are not
integers, integers beyond the float range or too long to print, scalars where
a sequence is expected, matrices whose shape does not
fit their layout, states on different layouts, non-finite matrices and
tolerances that are not numbers or lie outside [0, inf) must raise a
``symext.errors`` type with no numpy warning.  So must real parameters that
are not numbers (bools, numeric strings, None, sequences), NaN, or values
outside their range or not finite, and matrices, vectors and weights that are
ragged or not numeric (string, bool or object arrays).  numpy integers and
floats are accepted.  By the argument rule, a value that is not a
``DensityMatrix`` where a state belongs, not an ``ExtensionProblem``,
``MarginalSet`` or ``OracleConfig`` where one of those belongs (an int,
None, an ndarray, a list), or a state off the layout its call needs, is
refused by type name or layout.  A state file the CLI cannot read as a
state, whatever its bytes, exits 1 with one ``error:`` line.  Matrices with
subnormal entries, off-diagonal entries near the float limit or Hermiticity
defects at the tolerance and just past it are accepted or refused by
``DensityMatrix``, and every accepted one returns or is refused by the state
entry points and the oracle within 2 s.
"""

import json
import time
import warnings

import numpy as np
import pytest
from helpers import state_to_obj

from symext import (
    BOSONIC,
    SYMMETRIC,
    DensityMatrix,
    ExtensionProblem,
    LayoutError,
    OracleConfig,
    ValidationError,
    a_marginal_spread,
    average_marginals,
    bell_exact_2ext,
    bell_polytope_condition,
    bell_ssa,
    bell_state,
    MarginalSet,
    bosonic_extension_verdict,
    ckw_check,
    consistency_verdict,
    definetti_gap,
    generalized_coefficients,
    generalized_hat,
    hat_state,
    hermitian_eigs,
    maximally_mixed,
    oracle_feasibility,
    partial_trace,
    partial_transpose,
    permutation_operator,
    ppt_test,
    project_invariant_marginal,
    project_marginal_affine,
    project_permutation_invariant,
    project_psd,
    pure_state,
    random_density,
    ssa_check,
    sufficient_separability,
    symmetric_extension_verdict,
    tensor_product,
    tilde_state,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
    werner_hat_psi,
    werner_pentagon,
    werner_state,
    werner_tilde_psi,
    wootters_concurrence,
)
from symext.cli import main
from symext.oracle import KERNEL_TOL

NOT_INTEGERS = [2.0, 0.9, 1.5, True, "1", None, np.float64(1.0)]
BEYOND_FLOATS = [10**400, 10**5000]  # float math cannot take them, and the second has too many digits to print

# every real parameter is bounded or must be finite, so infinities are refused too
NOT_REALS = [True, "0.5", "a", None, [0.5], np.nan, np.inf, -np.inf]
# string, bool, object and ragged matrices, and the vectors of their first rows
NOT_MATRICES = [
    [["0.5", "0"], ["0", "0.5"]], [[True, False], [False, False]], [[0.5, None], [None, 0.5]], [[1, 0], [0]]
]
NOT_VECTORS = [["1", "0"], [True, False], [1, None], [[1, 0], [0]]]

BELL = bell_state([0.7, 0.1, 0.1, 0.1])
TARGET = maximally_mixed([2, 2])
PROBLEM = ExtensionProblem(BELL, 2)

# values of other types where a state, a problem, a marginal set or a config belongs
NOT_ARGUMENTS = [5, None, np.eye(4) / 4, [BELL]]

# entry point: (call taking one input, inputs it must refuse, an input it must accept)
CENSUS = {
    "DensityMatrix dims": (lambda v: DensityMatrix(np.eye(4) / 4, (v, 2)), NOT_INTEGERS, np.int64(2)),
    "maximally_mixed dims": (lambda v: maximally_mixed((v, 2)), NOT_INTEGERS, np.int64(2)),
    "random_density dims": (lambda v: random_density((v, 2), np.random.default_rng(0)), NOT_INTEGERS, np.int64(2)),
    "partial_trace keep": (lambda v: partial_trace(BELL, [v]), NOT_INTEGERS, np.int64(1)),
    "partial_transpose subsystem": (lambda v: partial_transpose(BELL, v), NOT_INTEGERS, np.int64(1)),
    "ppt_test cut": (lambda v: ppt_test(BELL, cut=v), NOT_INTEGERS, np.int64(1)),
    "permutation_operator entry": (lambda v: permutation_operator(2, 2, (v, 0)), NOT_INTEGERS, np.int64(1)),
    "project_permutation_invariant dims": (
        lambda v: project_permutation_invariant(np.eye(8), (2, v, 2)), NOT_INTEGERS, np.int64(2)
    ),
    "project_marginal_affine dims": (
        lambda v: project_marginal_affine(np.eye(8) / 8, (2, 2, v), TARGET), NOT_INTEGERS, np.int64(2)
    ),
    "project_invariant_marginal dims": (
        lambda v: project_invariant_marginal(np.eye(8) / 8, (2, 2, v), TARGET), NOT_INTEGERS, np.int64(2)
    ),
    # a side that does not match the layout, and a matrix that is not square
    "project_permutation_invariant side": (
        lambda x: project_permutation_invariant(x, (2, 2, 2)), [np.eye(7), np.eye(9), np.ones((8, 4))], np.eye(8)
    ),
    "project_marginal_affine side": (
        lambda x: project_marginal_affine(x, (2, 2, 2), TARGET), [np.eye(7) / 7, np.ones((8, 4))], np.eye(8) / 8
    ),
    "project_invariant_marginal side": (
        lambda x: project_invariant_marginal(x, (2, 2, 2), TARGET), [np.eye(7) / 7, np.ones((8, 4))], np.eye(8) / 8
    ),
    # a scalar where a sequence is expected
    "DensityMatrix dims sequence": (lambda v: DensityMatrix(np.eye(4) / 4, v), [4, np.int64(4), 4.0], (np.int64(4),)),
    "partial_trace keep sequence": (lambda v: partial_trace(BELL, v), [0, np.int64(0)], (np.int64(0),)),
    # states of different sides, and of one side on different layouts
    "trace_distance layouts": (lambda s: trace_distance(BELL, s), [maximally_mixed([2]), maximally_mixed([4])], TARGET),
    # tolerances that are not numbers, and an int beyond the float range
    "DensityMatrix tol": (
        lambda t: DensityMatrix(np.eye(4) / 4, (2, 2), tol=t),
        ["x", "1e-10", True, None, [1e-10], 10**400],
        np.float32(1e-10),
    ),
    "hermitian_eigs tol": (lambda t: hermitian_eigs(np.eye(2), t), [-1e-10, np.nan, np.inf], np.float32(0)),
    "trace_norm tol": (lambda t: trace_norm(np.eye(2), t), [-1e-10, np.nan, np.inf], np.float32(0)),
    # integers beyond the float range, refused where they enter instead of in the float math they reach
    "tilde_state k": (lambda k: tilde_state(BELL, k), BEYOND_FLOATS, np.int64(3)),
    "hat_state k": (lambda k: hat_state(BELL, k), BEYOND_FLOATS, np.int64(3)),
    "symmetric_extension_verdict k": (
        lambda k: symmetric_extension_verdict(ExtensionProblem(BELL, k)), BEYOND_FLOATS, np.int64(3)
    ),
    "bosonic_extension_verdict k": (
        lambda k: bosonic_extension_verdict(ExtensionProblem(BELL, k, BOSONIC)), BEYOND_FLOATS, np.int64(3)
    ),
    "definetti_gap k": (lambda k: definetti_gap(BELL, k), BEYOND_FLOATS, np.int64(3)),
    "werner_tilde_psi k": (lambda k: werner_tilde_psi(2, k, 0.5), BEYOND_FLOATS, np.int64(3)),
    "werner_hat_psi k": (lambda k: werner_hat_psi(2, k, 0.5), BEYOND_FLOATS, np.int64(3)),
    # integers too long to print whole, in the refusal that names them
    "DensityMatrix dims digits": (lambda v: DensityMatrix(np.eye(4) / 4, (v, 2)), [10**5000], np.int64(2)),
    "DensityMatrix tol digits": (lambda t: DensityMatrix(np.eye(4) / 4, (2, 2), tol=t), [10**5000], 0),
    "partial_trace keep digits": (lambda v: partial_trace(BELL, [v]), [10**5000, -(10**5000)], np.int64(1)),
    "maximally_mixed dims digits": (lambda v: maximally_mixed([v]), [10**5000], np.int64(2)),
    "permutation_operator dimension digits": (
        lambda d: permutation_operator(d, 2, (1, 0)), [10**5000], np.int64(2)
    ),
    "OracleConfig max_iters digits": (lambda m: OracleConfig(max_iters=m), [-(10**5000)], np.int64(5)),
    "oracle_feasibility k digits": (lambda k: oracle_feasibility(ExtensionProblem(BELL, k)), [10**5000], 2),
    # NaN weights, which compare False with every bound
    **{
        f"{fn.__name__} weights": (fn, [[np.nan, 0.2, 0.3, 0.5], [0.5, 0.5, 0.0, np.nan], [np.nan] * 4], [0.7, 0.1, 0.1, 0.1])
        for fn in (bell_state, bell_polytope_condition, bell_exact_2ext, bell_ssa)
    },
    # real parameters, each weight of a Bell mixture, and numeric arrays, by the real rule
    "werner_state psi": (lambda psi: werner_state(2, psi), NOT_REALS + [1.5], np.float64(0.5)),
    "werner_tilde_psi psi": (lambda psi: werner_tilde_psi(3, 2, psi), NOT_REALS, np.float64(-1.5)),
    "werner_hat_psi psi": (lambda psi: werner_hat_psi(3, 2, psi), NOT_REALS, np.int64(-3)),
    "werner_pentagon psi1": (lambda psi: werner_pentagon(psi, 0.0), NOT_REALS + [-1.5], np.float64(-0.5)),
    "werner_pentagon psi2": (lambda psi: werner_pentagon(0.0, psi), NOT_REALS + [1.5], np.int64(-1)),
    "ckw_check c_abc": (lambda c: ckw_check(BELL, BELL, c), NOT_REALS + [1.5, -0.5], np.float64(1.0)),
    **{
        f"{fn.__name__} weight kinds": (lambda v, fn=fn: fn([v] * 4), NOT_REALS, np.float64(0.25))
        for fn in (bell_state, bell_polytope_condition, bell_exact_2ext, bell_ssa)
    },
    "DensityMatrix matrix": (DensityMatrix, NOT_MATRICES, np.eye(2) / 2),
    "hermitian_eigs matrix": (hermitian_eigs, NOT_MATRICES, np.eye(2, dtype=np.int64)),
    "trace_norm matrix": (trace_norm, NOT_MATRICES, np.eye(2, dtype=np.int64)),
    "pure_state vector": (pure_state, NOT_VECTORS, np.array([1, 0], dtype=np.int64)),
    "permutation_operator sequence": (lambda pi: permutation_operator(2, 2, pi), [5, np.int64(5)], (np.int64(1), 0)),
    "MarginalSet sequence": (MarginalSet, [5, np.float64(0.5)], (BELL, BELL)),
    "project_psd matrix": (
        project_psd,
        [np.ones((2, 3)), np.ones(4), np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), np.diag([1.0, -np.inf])]
        + NOT_MATRICES,
        np.diag([1.0, -1.0]),
    ),
    # the argument rule: each state, problem, marginal set and config is checked for its type where it enters
    "tensor_product first": (lambda s: tensor_product(s, BELL), NOT_ARGUMENTS, BELL),
    "tensor_product second": (lambda s: tensor_product(BELL, s), NOT_ARGUMENTS, BELL),
    "partial_trace state": (lambda s: partial_trace(s, [0]), NOT_ARGUMENTS, BELL),
    "partial_transpose state": (lambda s: partial_transpose(s, 1), NOT_ARGUMENTS, BELL),
    "trace_distance first": (lambda s: trace_distance(s, BELL), NOT_ARGUMENTS, TARGET),
    "trace_distance second": (lambda s: trace_distance(BELL, s), NOT_ARGUMENTS, TARGET),
    "von_neumann_entropy state": (von_neumann_entropy, NOT_ARGUMENTS, BELL),
    "ppt_test state": (ppt_test, NOT_ARGUMENTS, BELL),
    "generalized_hat state": (lambda s: generalized_hat(s, 2), NOT_ARGUMENTS, BELL),
    "ExtensionProblem marginal": (lambda s: ExtensionProblem(s, 2), NOT_ARGUMENTS, BELL),
    "tilde_state state": (lambda s: tilde_state(s, 2), NOT_ARGUMENTS, BELL),
    "hat_state state": (lambda s: hat_state(s, 2), NOT_ARGUMENTS, BELL),
    "definetti_gap state": (lambda s: definetti_gap(s, 2), NOT_ARGUMENTS, BELL),
    "sufficient_separability state": (sufficient_separability, NOT_ARGUMENTS, BELL),
    "ssa_check first": (lambda s: ssa_check(s, BELL), NOT_ARGUMENTS, BELL),
    "ssa_check second": (lambda s: ssa_check(BELL, s), NOT_ARGUMENTS, BELL),
    "wootters_concurrence state": (wootters_concurrence, NOT_ARGUMENTS + [maximally_mixed([4])], BELL),
    "ckw_check state": (lambda s: ckw_check(BELL, s, 1.0), NOT_ARGUMENTS + [maximally_mixed([2, 3])], BELL),
    "MarginalSet first member": (lambda s: MarginalSet([s, BELL]), NOT_ARGUMENTS, BELL),
    "MarginalSet other member": (
        lambda s: MarginalSet([BELL, BELL, s]), NOT_ARGUMENTS + [maximally_mixed([2, 3])], BELL
    ),
    "project_marginal_affine target": (
        lambda t: project_marginal_affine(np.eye(8) / 8, (2, 2, 2), t), NOT_ARGUMENTS + [maximally_mixed([4])], TARGET
    ),
    "project_invariant_marginal target": (
        lambda t: project_invariant_marginal(np.eye(8) / 8, (2, 2, 2), t),
        NOT_ARGUMENTS + [maximally_mixed([4])],
        TARGET,
    ),
    "oracle_feasibility problem": (oracle_feasibility, NOT_ARGUMENTS + [BELL], PROBLEM),
    "oracle_feasibility cfg": (lambda c: oracle_feasibility(PROBLEM, c), [0, 5, np.eye(4), [30]], OracleConfig(5)),
    "symmetric_extension_verdict problem": (symmetric_extension_verdict, NOT_ARGUMENTS + [BELL], PROBLEM),
    "bosonic_extension_verdict problem": (
        bosonic_extension_verdict, NOT_ARGUMENTS + [BELL], ExtensionProblem(BELL, 2, BOSONIC)
    ),
    # a list of states is not a marginal set
    **{
        f"{fn.__name__} marginal set": (fn, NOT_ARGUMENTS + [[BELL, BELL], (BELL, BELL)], MarginalSet([BELL, BELL]))
        for fn in (a_marginal_spread, average_marginals, consistency_verdict)
    },
    # refusals no other test reaches
    "ExtensionProblem flavor": (lambda f: ExtensionProblem(BELL, 2, f), ["x", None, 5], BOSONIC),
    "partial_trace keep duplicates": (lambda keep: partial_trace(BELL, keep), [[0, 0], [1, 1]], [1, 0]),
    "pure_state zero vector": (pure_state, [[0, 0], np.zeros(4)], [0, 1]),
    "project_permutation_invariant factors": (
        lambda dims: project_permutation_invariant(np.eye(2), dims), [[2]], [1, 2]
    ),
    "ssa_check A dimensions": (lambda s: ssa_check(BELL, s), [maximally_mixed([3, 2])], maximally_mixed([2, 3])),
    "symmetric_extension_verdict flavor": (
        lambda f: symmetric_extension_verdict(ExtensionProblem(BELL, 2, f)), [BOSONIC], SYMMETRIC
    ),
    "bosonic_extension_verdict flavor": (
        lambda f: bosonic_extension_verdict(ExtensionProblem(BELL, 2, f)), [SYMMETRIC], BOSONIC
    ),
    # the Werner maps refuse a parameter, or its integer denominator, past the float range, formed as written
    "werner_tilde_psi range": (
        lambda a: werner_tilde_psi(*a),
        [(2, 2, 1e308), (2, 2, -1e308), (3, 10**9, 1e300), (10**200, 1, 0.5)],
        (3, 2, -1.5),
    ),
    "werner_hat_psi range": (
        lambda a: werner_hat_psi(*a),
        [(2, 2, 1e308), (2, 2, -1e308), (3, 10**9, 1e300), (10**308, 10**308, 0.5)],
        (3, 2, -0.5),
    ),
    # exact binomials past the work budget are refused before any is formed; the largest admitted k = r, d = 2
    "generalized_coefficients work": (
        lambda a: generalized_coefficients(*a), [(10**6, 2, 10**6), (1989, 2, 1989)], (1988, 2, 1988)
    ),
}


@pytest.mark.parametrize("entry", list(CENSUS))
def test_entry_point_refuses_bad_input_and_accepts_numpy_scalars(entry):
    call, refused, accepted = CENSUS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in refused:
            with pytest.raises(Exception) as err:
                call(value)
            assert type(err.value).__module__ == "symext.errors", (value, repr(err.value))
        call(accepted)


def _kernel_edge_marginal(d, low):
    """A d x d marginal with smallest eigenvalue low, in a complex frame and with a rest of the spectrum seeded by d."""
    rng = np.random.default_rng(900 + d)
    n = d * d
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    spectrum = np.append(rng.dirichlet(np.ones(n - 1)) * (1 - low), low)
    mat = (u * spectrum) @ u.conj().T
    return DensityMatrix((mat + mat.conj().T) / 2, (d, d))


@pytest.mark.parametrize("flavor", [SYMMETRIC, BOSONIC])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_oracle_returns_in_time_around_the_kernel_cut(d, k, flavor):
    # smallest eigenvalues of 0 to 4 KERNEL_TOL straddle both cuts of the full-rank test: the kernel
    # eigensolve's KERNEL_TOL and the validation spectrum's 2 KERNEL_TOL
    for scale in (0.0, 0.5, 1.0, 2.0, 2.5, 4.0):
        rho = _kernel_edge_marginal(d, scale * KERNEL_TOL)
        assert abs(np.linalg.eigvalsh(rho.mat)[0] - scale * KERNEL_TOL) < 1e-14
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                oracle_feasibility(ExtensionProblem(rho, k, flavor))
            except Exception as err:
                assert type(err).__module__ == "symext.errors", (scale, repr(err))
        assert time.perf_counter() - start < 2, scale


def _matrix(entries, diag=(0.25, 0.25, 0.25, 0.25)):
    """A 4 x 4 complex matrix with the given diagonal and the given (row, column) entries, written as they are."""
    m = np.diag(np.asarray(diag, dtype=complex))
    for (i, j), value in entries.items():
        m[i, j] = value
    return m


# (matrix, whether DensityMatrix accepts it at its default tolerance HERM_TOL = 1e-10): subnormal entries,
# added Hermitian, off-diagonal entries near the float limit, and Hermiticity defects at the tolerance and
# one ulp past it
EXTREME_MATRICES = {
    "subnormal off-diagonal": (_matrix({(0, 1): 5e-324, (1, 0): 5e-324}), True),
    "subnormal imaginary off-diagonal": (_matrix({(0, 3): 5e-324j, (3, 0): -5e-324j}), True),
    "subnormal eigenvalue": (_matrix({}, (0.5, 0.5, 5e-324, 0.0)), True),
    "subnormal off-diagonal on the kernel": (_matrix({(2, 3): 5e-324, (3, 2): 5e-324}, (0.5, 0.5, 0.0, 0.0)), True),
    "off-diagonal 1e200": (_matrix({(0, 1): 1e200, (1, 0): 1e200}), False),
    "off-diagonal 1e308": (_matrix({(0, 1): 1e308, (1, 0): 1e308}), False),
    "off-diagonal 1.7e308": (_matrix({(0, 1): 1.7e308, (1, 0): 1.7e308}), False),
    "imaginary off-diagonal 1.7e308": (_matrix({(0, 1): 1.7e308j, (1, 0): -1.7e308j}), False),
    "Hermiticity defect at tol": (_matrix({(0, 1): 1e-10}), True),
    "Hermiticity defect one ulp past tol": (_matrix({(0, 1): np.nextafter(1e-10, 1.0)}), False),
}


def _returns_or_refuses(call):
    """call's result, or None when it raised a symext.errors type; within 2 s, with warnings as errors."""
    start = time.perf_counter()
    out = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except Exception as err:
            assert type(err).__module__ == "symext.errors", repr(err)
    assert time.perf_counter() - start < 2
    return out


@pytest.mark.parametrize("name", list(EXTREME_MATRICES))
def test_extreme_entries_return_or_refuse_in_time(name):
    mat, accepted = EXTREME_MATRICES[name]
    rho = _returns_or_refuses(lambda: DensityMatrix(mat, (2, 2)))
    assert (rho is not None) == accepted
    if rho is None:
        return
    calls = [
        lambda: partial_trace(rho, [0]),
        lambda: partial_trace(rho, [1]),
        lambda: von_neumann_entropy(rho),
        lambda: trace_distance(rho, TARGET),
        lambda: ssa_check(rho, rho),
        lambda: ssa_check(TARGET, rho),
        lambda: consistency_verdict(MarginalSet([rho, rho])),
        lambda: consistency_verdict(MarginalSet([TARGET, rho])),
    ]
    for k in (2, 3):
        calls += [
            lambda k=k: symmetric_extension_verdict(ExtensionProblem(rho, k, SYMMETRIC)),
            lambda k=k: bosonic_extension_verdict(ExtensionProblem(rho, k, BOSONIC)),
            lambda k=k: oracle_feasibility(ExtensionProblem(rho, k, SYMMETRIC)),
            lambda k=k: oracle_feasibility(ExtensionProblem(rho, k, BOSONIC)),
        ]
    for call in calls:
        _returns_or_refuses(call)


# refusals whose words predate the real rule: (call, message)
REAL_MESSAGES = [
    (lambda: bell_state([0.5, 0.6, 0.0, -0.1]), "probabilities must lie in [0, 1], got -0.1"),
    (lambda: bell_ssa([0.5, 0.3, 0.1, 0.2]), f"probabilities must sum to 1, got sum {np.float64(1.1)!r}"),
    (lambda: bell_exact_2ext([0.5, 0.5]), "need four probabilities, got shape (2,)"),
    (lambda: werner_state(2, 1.5), "parameter must lie in [-1, 1], got 1.5"),
    (lambda: werner_pentagon(0.0, -1.5), "parameters must lie in [-1, 1], got -1.5"),
    (lambda: ckw_check(BELL, BELL, 1.5), "global concurrence must lie in [0, 1], got 1.5"),
    (lambda: DensityMatrix(np.eye(4) / 4, tol="1e-10"), "tolerance must be finite and >= 0, got '1e-10'"),
]


@pytest.mark.parametrize("case", range(len(REAL_MESSAGES)))
def test_real_refusals_keep_their_words(case):
    call, message = REAL_MESSAGES[case]
    with pytest.raises(Exception) as err:
        call()
    assert type(err.value).__module__ == "symext.errors"
    assert str(err.value) == message


# the argument rule's words, which name a refused value's type, never its repr: (call, error type, message)
ARGUMENT_MESSAGES = [
    (lambda: partial_trace(np.eye(4) / 4, [0]), ValidationError, "state must be of type DensityMatrix, got ndarray"),
    (lambda: tensor_product(BELL, [BELL]), ValidationError, "state must be of type DensityMatrix, got list"),
    (lambda: ExtensionProblem(None, 2), ValidationError, "marginal must be of type DensityMatrix, got NoneType"),
    (lambda: ssa_check(BELL, 5), ValidationError, "rho_ac must be of type DensityMatrix, got int"),
    (lambda: MarginalSet([BELL, 5]), ValidationError, "marginal must be of type DensityMatrix, got int"),
    (
        lambda: symmetric_extension_verdict(BELL),
        ValidationError,
        "problem must be of type ExtensionProblem, got DensityMatrix",
    ),
    (lambda: consistency_verdict([BELL, BELL]), ValidationError, "marginal set must be of type MarginalSet, got list"),
    (lambda: oracle_feasibility(PROBLEM, 0), ValidationError, "cfg must be of type OracleConfig, got int"),
    (lambda: trace_distance(BELL, maximally_mixed([4])), LayoutError, "state must have layout (2, 2), got (4,)"),
    (lambda: MarginalSet([BELL, maximally_mixed([2, 3])]), LayoutError, "marginal must have layout (2, 2), got (2, 3)"),
    (lambda: wootters_concurrence(maximally_mixed([4])), LayoutError, "state must have layout (2, 2), got (4,)"),
    (
        lambda: project_marginal_affine(np.eye(8) / 8, (2, 2, 2), maximally_mixed([4])),
        LayoutError,
        "target must have layout (2, 2), got (4,)",
    ),
    # the messages the rule keeps
    (lambda: definetti_gap(maximally_mixed([2, 2, 2]), 2), LayoutError, "expected a bipartite layout, got (2, 2, 2)"),
    (lambda: ssa_check(BELL, maximally_mixed([3, 2])), LayoutError, "A dimensions differ: 2 vs 3"),
    (
        lambda: bosonic_extension_verdict(PROBLEM),
        ValidationError,
        "expected a bosonic-flavor problem, got 'symmetric'",
    ),
]


@pytest.mark.parametrize("case", range(len(ARGUMENT_MESSAGES)))
def test_argument_refusals_name_the_type_or_layout(case):
    call, error, message = ARGUMENT_MESSAGES[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


_BELL_FILE = json.dumps(state_to_obj(BELL))
_HUGE_ENTRY = state_to_obj(BELL)
_HUGE_ENTRY["matrix"]["re"][0][1] = 10**400
_STRING_ENTRIES = state_to_obj(BELL)
_STRING_ENTRIES["matrix"]["re"] = [["0.25"] * 4] * 4
_BOOL_PART = state_to_obj(BELL)
_BOOL_PART["matrix"]["im"] = [[False] * 4] * 4

# state files that raised a raw exception from the reader, which check, consistency and definetti --state share:
# (bytes, the error line; {path} stands for the file's path)
STATE_FILES = {
    "not UTF-8": (
        b"\xff\xfe" + _BELL_FILE.encode("utf-16-le"),
        "error: {path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    # numpy reads a part holding an integer past the float range as an object array, which the real rule refuses
    "an integer past the float range": (
        json.dumps(_HUGE_ENTRY).encode(),
        "error: state matrix must be a numeric array, got dtype object",
    ),
    # parts the real rule refuses, as DensityMatrix does; both were read as numbers
    "numeric strings": (
        json.dumps(_STRING_ENTRIES).encode(), "error: state matrix must be a numeric array, got dtype <U4"
    ),
    "an all-bool part": (
        json.dumps(_BOOL_PART).encode(), "error: state matrix must be a numeric array, got dtype bool"
    ),
    "100,000 nested arrays": (b"[" * 100_000, "error: {path} is not valid JSON: arrays or objects nested too deeply"),
    # the UTF-8 byte-order mark keeps the refusal it always had
    "a UTF-8 BOM": (
        b"\xef\xbb\xbf" + _BELL_FILE.encode(),
        "error: {path} is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
    ),
}


@pytest.mark.parametrize("name", list(STATE_FILES))
def test_state_file_refusals_are_one_error_line(capsys, tmp_path, name):
    data, line = STATE_FILES[name]
    path = tmp_path / "state.json"
    path.write_bytes(data)
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    for argv in (
        ["check", str(path), "--k", "2"],
        ["consistency", str(path), str(path)],
        ["definetti", "--state", str(path), "--out", str(out)],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line.format(path=path) + "\n"), argv
    assert out.read_text() == "kept\n"


def test_consistency_of_one_state_file_exits_1(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(_BELL_FILE)
    assert main(["consistency", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: need at least two state files\n")
