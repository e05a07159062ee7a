"""Feasibility oracle: projections and end-to-end decisions."""

import dataclasses
import itertools
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    DENSE_CHECK_SIDE,
    block_isometries,
    brute_force_permutation_average,
    certificate_holds,
    column_hessian,
    compress_rows,
    dense_dual_check,
    dense_face_affine_projection,
    dim_guard_reach_admits,
    lift_blocks,
    lifted_placements,
    placed_amap,
    project_affine,
    random_separable,
    rebuilt_placements,
)
from symext import (
    BOSONIC,
    DensityMatrix,
    INCONCLUSIVE,
    SYMMETRIC,
    VIOLATED,
    ExtensionProblem,
    FEASIBLE,
    INFEASIBLE,
    LayoutError,
    OracleConfig,
    ResourceLimitError,
    UNDECIDED,
    ValidationError,
    bell_exact_2ext,
    bell_state,
    bosonic_extension_verdict,
    maximally_mixed,
    oracle_feasibility,
    project_invariant_marginal,
    project_marginal_affine,
    project_permutation_invariant,
    project_psd,
    random_density,
    symmetric_extension_verdict,
    symmetric_projector,
    tensor_product,
    werner_state,
)
import symext.oracle as oracle_mod
from symext.linalg import _occupation_isometry, _ptrace_mat, hermitize
from symext.oracle import (
    _check_reach,
    _dual_point,
    _extension_blocks,
    _face_blocks,
    _make_blocks,
    _newton_hessian,
    _nullspace,
    _solve_matrix,
    _specht_dim,
    _state_kernel,
    _weyl_isometry,
)


# three Newton steps leave it undecided: Newton decides it at step 6
NEWTON_UNDECIDED_AT_3 = ExtensionProblem(bell_state((0.5, 0.3, 0.15, 0.05)), 3, SYMMETRIC)


def _random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def _local_frame(rho, rng):
    """rho in a random local frame U_A (x) U_B: extendable exactly when rho is."""
    u = np.kron(*(np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0] for d in rho.dims))
    return DensityMatrix(hermitize(u @ rho.mat @ u.conj().T), rho.dims)


def test_project_psd():
    rng = np.random.default_rng(50)
    psd = random_density([2, 2], rng).mat
    assert np.max(np.abs(project_psd(psd) - psd)) < 1e-12

    clipped = project_psd(np.diag([1.0, -1.0]))
    assert np.max(np.abs(clipped - np.diag([1.0, 0.0]))) < 1e-15

    h = _random_hermitian(8, rng)
    p = project_psd(h)
    assert np.linalg.eigvalsh(p)[0] > -1e-12
    assert np.max(np.abs(project_psd(p) - p)) < 1e-12


def test_project_permutation_invariant():
    rng = np.random.default_rng(51)
    dims = (2, 2, 2)
    rho_a = random_density([2], rng).mat
    s1 = random_density([2], rng).mat
    s2 = random_density([2], rng).mat
    x = np.kron(rho_a, np.kron(s1, s2))
    out = project_permutation_invariant(x, dims)
    expected = (np.kron(rho_a, np.kron(s1, s2)) + np.kron(rho_a, np.kron(s2, s1))) / 2
    assert np.max(np.abs(out - expected)) < 1e-12

    h = _random_hermitian(8, rng)
    out = project_permutation_invariant(h, dims)
    assert abs(np.trace(out) - np.trace(h)) < 1e-12
    assert np.max(np.abs(project_permutation_invariant(out, dims) - out)) < 1e-12


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_project_permutation_invariant_matches_brute_force(d, k):
    rng = np.random.default_rng(60 + 10 * d + k)
    dims = (2,) + (d,) * k
    x = _random_hermitian(2 * d**k, rng)
    assert np.max(np.abs(project_permutation_invariant(x, dims) - brute_force_permutation_average(x, dims))) < 1e-12


def test_project_psd_falls_back_when_eigh_fails(monkeypatch):
    rng = np.random.default_rng(61)
    h = _random_hermitian(12, rng)
    expected = project_psd(h)

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    assert np.max(np.abs(project_psd(h) - expected)) < 1e-12


def test_oracle_undecided_when_psd_projection_fails(monkeypatch):
    problem = ExtensionProblem(werner_state(2, -0.3), 3, SYMMETRIC)
    oracle_feasibility(problem, OracleConfig(max_iters=1))  # builds the cached blocks
    real_eigh = np.linalg.eigh

    def eigh_failing_at(failing):
        # calls 1 and 2 are the two blocks of Newton's start, and each trial
        # point of a line search makes two more; the full-rank marginal takes
        # no kernel eigensolve
        calls = []

        def eigh(*args, **kwargs):
            calls.append(None)
            if failing(len(calls)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigh(*args, **kwargs)

        return eigh

    # a failure at Newton's start: no step tested, the start's lift reported
    monkeypatch.setattr(np.linalg, "eigh", eigh_failing_at(lambda n: n == 2))
    res = oracle_feasibility(problem)
    assert (res.status, res.stop_reason, res.iterations, res.gap_trace) == (UNDECIDED, "linalg-error", 0, ())
    assert res.residual == math.inf and res.dual_witness is None
    assert math.isnan(res.certificate["min_eig"])
    assert res.certificate["marginal_residual"] < 1e-12

    # a failure in the first line search keeps the step it tested
    monkeypatch.setattr(np.linalg, "eigh", eigh_failing_at(lambda n: n >= 4))
    res = oracle_feasibility(problem)
    assert (res.status, res.stop_reason, res.iterations) == (UNDECIDED, "linalg-error", 1)
    assert res.gap_trace == ((1, res.residual),) and res.residual > OracleConfig.tol_feasible
    assert math.isnan(res.certificate["min_eig"])
    assert res.certificate["marginal_residual"] < 1.0
    monkeypatch.setattr(np.linalg, "eigh", real_eigh)

    # and so does a failed Newton system
    def failing_solve(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    res = oracle_feasibility(problem)
    assert (res.status, res.stop_reason, res.iterations, res.gap_trace) == (UNDECIDED, "linalg-error", 1, ((1, res.residual),))


def test_oracle_undecided_when_the_face_reach_eigensolve_fails(monkeypatch):
    # the reach test is the first act of the Newton run, inside its
    # linalg-error handling: a failed eigensolve of the witness shift ends
    # Undecided at the start's lift instead of escaping as a raw error
    problem = ExtensionProblem(bell_state((0.8, 0.2, 0, 0)), 2, SYMMETRIC)
    assert oracle_feasibility(problem).stop_reason == "face-reach"

    def failing_eigvalsh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    res = oracle_feasibility(problem)
    assert (res.status, res.stop_reason, res.iterations, res.gap_trace) == (UNDECIDED, "linalg-error", 0, ())
    assert res.residual == math.inf and res.dual_witness is None and "certified" not in res.certificate
    assert math.isnan(res.certificate["min_eig"])
    # the start's lift amap^+ rho, whose marginal misses rho by the face-reach deficit
    blocks = _solve_blocks(problem)
    start = blocks.correction(blocks.compress(_solve_matrix(problem.marginal)))
    missed = float(np.linalg.norm(blocks.placed_marginal(start) - problem.marginal.mat))
    assert missed >= OracleConfig.tol_gap
    assert abs(res.certificate["marginal_residual"] - missed) < 1e-12


@pytest.mark.parametrize(
    "problem,reason",
    [
        (ExtensionProblem(werner_state(2, -0.3), 3, SYMMETRIC), "feasible-gap"),
        (ExtensionProblem(werner_state(2, -0.5), 3, SYMMETRIC), "dual-certificate"),
    ],
    ids=["feasible", "dual-certificate"],
)
def test_oracle_undecided_when_the_certificate_eigensolve_fails(monkeypatch, problem, reason):
    # the readbacks of min_eig and dual_min_eig are inside the run's
    # linalg-error handling: on a full-rank solve, whose steps take only eigh,
    # a failed eigvalsh ends Undecided at the last tested point
    ref = oracle_feasibility(problem)
    assert ref.stop_reason == reason and ref.iterations >= 1

    def failing_eigvalsh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    res = oracle_feasibility(problem)
    assert (res.status, res.stop_reason) == (UNDECIDED, "linalg-error")
    assert (res.iterations, res.residual, res.gap_trace) == (ref.iterations, ref.residual, ref.gap_trace)
    assert res.dual_witness is None and "certified" not in res.certificate
    assert math.isnan(res.certificate["min_eig"])
    assert res.certificate["marginal_residual"] == ref.certificate["marginal_residual"]


def test_amap_is_onto_off_a_face():
    # the reach test runs only on a face: the full-rank blocks of every
    # layout GOLDEN and the benchmark solve reproduce any marginal
    rng = np.random.default_rng(73)
    layouts = [(2, k, SYMMETRIC) for k in range(2, 6)] + [(3, k, SYMMETRIC) for k in (2, 3)]
    layouts += [(2, k, BOSONIC) for k in range(2, 9)] + [(3, k, BOSONIC) for k in range(2, 5)]
    for d, k, flavor in layouts:
        blocks = _extension_blocks(d, d, k, flavor)
        assert blocks.frame is None
        for _ in range(3):
            rho = random_density((d, d), rng)
            assert rho.mat.imag.any() and _state_kernel(rho) is None
            reached = blocks.expand(blocks.marginal(blocks.correction(blocks.compress(rho.mat))))
            assert np.linalg.norm(rho.mat - reached) < 1e-12, (d, k, flavor)


def test_projections_nonexpansive():
    rng = np.random.default_rng(52)
    dims = (2, 2, 2)
    target = random_density((2, 2), rng)
    for _ in range(5):
        x = _random_hermitian(8, rng)
        y = _random_hermitian(8, rng)
        base = np.linalg.norm(x - y)
        for proj in (
            project_psd,
            lambda m: project_permutation_invariant(m, dims),
            lambda m: project_marginal_affine(m, dims, target),
            lambda m: project_invariant_marginal(m, dims, target),
        ):
            assert np.linalg.norm(proj(x) - proj(y)) <= base + 1e-12


def test_project_marginal_affine():
    rng = np.random.default_rng(53)
    dims = (2, 2, 2)
    target = bell_state([1, 0, 0, 0])

    matching = np.kron(target.mat, np.eye(2) / 2)
    assert np.max(np.abs(project_marginal_affine(matching, dims, target) - matching)) < 1e-12

    x = np.eye(8) / 8
    out = project_marginal_affine(x, dims, target)
    assert np.max(np.abs(_ptrace_mat(out, dims, [0, 1]) - target.mat)) < 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-12

    h = _random_hermitian(8, rng)
    out = project_marginal_affine(h, dims, target)
    assert abs(np.trace(out) - 1.0) < 1e-12  # correction carries the trace deficit
    assert np.max(np.abs(project_marginal_affine(out, dims, target) - out)) < 1e-12


@pytest.mark.parametrize("d_a,d_b,k", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_project_invariant_marginal_exactness(d_a, d_b, k):
    rng = np.random.default_rng(54 + d_a + d_b + k)
    dims = (d_a,) + (d_b,) * k
    n = d_a * d_b**k
    target = random_density((d_a, d_b), rng)
    x = _random_hermitian(n, rng)
    px = project_invariant_marginal(x, dims, target)

    # membership in both affine sets
    assert np.max(np.abs(project_permutation_invariant(px, dims) - px)) < 1e-12
    assert np.max(np.abs(_ptrace_mat(px, dims, [0, 1]) - target.mat)) < 1e-12
    # idempotence
    assert np.max(np.abs(project_invariant_marginal(px, dims, target) - px)) < 1e-12
    # agrees with the alternating-projection limit (exact projection onto the
    # intersection of two affine sets)
    z = x.copy()
    for _ in range(800):
        z = project_permutation_invariant(project_marginal_affine(z, dims, target), dims)
    assert np.max(np.abs(z - px)) < 1e-8
    # the displacement is orthogonal to the direction space of the intersection
    c1 = project_invariant_marginal(_random_hermitian(n, rng), dims, target)
    c2 = project_invariant_marginal(_random_hermitian(n, rng), dims, target)
    inner = np.real(np.trace((x - px).conj().T @ (c1 - c2)))
    assert abs(inner) < 1e-10


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2)])
def test_occupation_isometry(d, k):
    iso = _occupation_isometry(d, k)
    dim_sym = math.comb(d + k - 1, k)
    assert iso.shape == (d**k, dim_sym)
    assert np.max(np.abs(iso.conj().T @ iso - np.eye(dim_sym))) < 1e-12
    assert np.max(np.abs(iso @ iso.conj().T - symmetric_projector(d, k))) < 1e-12


def test_bosonic_affine_projection():
    rng = np.random.default_rng(55)
    d_a, d_b, k = 2, 2, 2
    dims_full = (d_a,) + (d_b,) * k
    blocks = _extension_blocks(d_a, d_b, k, BOSONIC)
    assert blocks.sides == (d_a * math.comb(d_b + k - 1, k),) and blocks.weights == (1,)
    target = random_density((d_a, d_b), rng)
    side = blocks.sides[0]
    y = _random_hermitian(side, rng).ravel()
    project = lambda v: project_affine(blocks, v, target.mat.ravel())
    py = project(y)
    # marginal satisfied through the lift
    assert np.max(np.abs(_ptrace_mat(lift_blocks(blocks, py), dims_full, [0, 1]) - target.mat)) < 1e-10
    # hermiticity preserved
    m = py.reshape(side, side)
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    # idempotent
    assert np.max(np.abs(project(py) - py)) < 1e-12


def test_oracle_product_state_feasible():
    rng = np.random.default_rng(56)
    prod = tensor_product(random_density([2], rng), random_density([2], rng))
    res = oracle_feasibility(ExtensionProblem(prod, 3, SYMMETRIC))
    assert res.status == FEASIBLE
    assert res.residual <= 1e-7


def test_oracle_bell_infeasible_both_flavors():
    bell = bell_state([1, 0, 0, 0])
    for flavor in (SYMMETRIC, BOSONIC):
        problem = ExtensionProblem(bell, 2, flavor)
        res = oracle_feasibility(problem)
        assert res.status == INFEASIBLE and certificate_holds(res, problem)
        assert res.residual >= 1e-2
        assert res.certificate["marginal_residual"] >= 1e-2


def test_oracle_werner_nonoptimality_gap():
    # at psi = -0.5, d=2, k=3: the tilde criterion is silent but the exact
    # threshold -(d-1)/k = -1/3 is crossed; the oracle must see infeasibility
    rho = werner_state(2, -0.5)
    verdict = symmetric_extension_verdict(ExtensionProblem(rho, 3, SYMMETRIC))
    assert verdict.status == INCONCLUSIVE
    res = oracle_feasibility(ExtensionProblem(rho, 3, SYMMETRIC))
    assert res.status == INFEASIBLE

    res = oracle_feasibility(ExtensionProblem(werner_state(2, -0.2), 3, SYMMETRIC))
    assert res.status == FEASIBLE


def test_oracle_flavors_agree_for_two_qubit_k2():
    for p in ([0.25] * 4, [0.7, 0.1, 0.1, 0.1], [0.8, 0.2, 0, 0], [1, 0, 0, 0]):
        rho = bell_state(p)
        sym = oracle_feasibility(ExtensionProblem(rho, 2, SYMMETRIC))
        bos = oracle_feasibility(ExtensionProblem(rho, 2, BOSONIC))
        assert sym.status == bos.status == (FEASIBLE if bell_exact_2ext(p) else INFEASIBLE)


def test_oracle_never_contradicts_criteria():
    rng = np.random.default_rng(57)
    # wherever the analytic criterion proves a violation, the oracle must not
    # report feasibility
    for _ in range(8):
        p = rng.dirichlet([1, 1, 1, 1])
        rho = bell_state(p)
        verdict = bosonic_extension_verdict(ExtensionProblem(rho, 2, BOSONIC))
        if verdict.status == VIOLATED:
            res = oracle_feasibility(ExtensionProblem(rho, 2, BOSONIC))
            assert res.status != FEASIBLE
    for psi in (-0.9, -0.75):
        rho = werner_state(2, psi)
        verdict = symmetric_extension_verdict(ExtensionProblem(rho, 3, SYMMETRIC))
        if verdict.status == VIOLATED:
            res = oracle_feasibility(ExtensionProblem(rho, 3, SYMMETRIC))
            assert res.status != FEASIBLE


def test_oracle_maximally_mixed_quick():
    res = oracle_feasibility(ExtensionProblem(maximally_mixed([2, 2]), 4, SYMMETRIC))
    assert res.status == FEASIBLE
    assert res.iterations <= 10


def test_oracle_separable_feasible():
    rng = np.random.default_rng(58)
    for _ in range(3):
        rho = random_separable((2, 2), rng)
        res = oracle_feasibility(ExtensionProblem(rho, 3, SYMMETRIC))
        assert res.status in (FEASIBLE, UNDECIDED)
        assert res.status == FEASIBLE or res.residual < 1e-4


def test_oracle_rank_deficient_marginals():
    # a zero Bell weight makes the marginal singular; the forced support face
    # keeps the oracle decisive instead of stalling on the tangent geometry
    feasible_p = (0.0, 1 / 9, 3 / 9, 5 / 9)
    assert bell_exact_2ext(feasible_p)
    res = oracle_feasibility(ExtensionProblem(bell_state(feasible_p), 2, SYMMETRIC))
    assert res.status == FEASIBLE

    infeasible_p = (0.8, 0.2, 0.0, 0.0)
    assert not bell_exact_2ext(infeasible_p)
    problem = ExtensionProblem(bell_state(infeasible_p), 2, SYMMETRIC)
    res = oracle_feasibility(problem)
    assert res.status == INFEASIBLE and certificate_holds(res, problem)
    assert res.iterations == 0  # the face cannot reproduce the marginal at all
    assert res.certificate["marginal_residual"] > 1e-2
    # the witness is minus the marginal's residual: its trace is minus the residual's square
    assert res.certificate["dual_trace"] == pytest.approx(-res.certificate["marginal_residual"] ** 2, rel=1e-12)

    # rank-1 marginal, both flavors: the face is empty, so any negative trace proves it
    singlet = werner_state(2, -1.0)
    for problem in (ExtensionProblem(singlet, 2, BOSONIC), ExtensionProblem(singlet, 3, SYMMETRIC)):
        res = oracle_feasibility(problem)
        assert res.status == INFEASIBLE and res.block_sides == () and certificate_holds(res, problem)


def test_face_projector_annihilates_kernel_placements():
    rho = bell_state([0.0, 0.5, 0.3, 0.2])
    face = _state_kernel(rho)
    assert face is not None and face[0].shape[1] == 1
    kernel, frame = face
    # the range basis completes the kernel's
    assert frame.shape == (4, 3) and np.max(np.abs(kernel.conj().T @ frame)) < 1e-15
    blocks = _face_blocks(_extension_blocks(2, 2, 2, SYMMETRIC), kernel, frame)
    # every face block annihilates the kernel vector placed on either B slot
    v = kernel[:, 0]
    for iso in block_isometries(blocks):
        face = iso @ iso.conj().T
        for w_idx in range(2):
            w = np.zeros(2)
            w[w_idx] = 1.0
            placed_b1 = np.kron(v, w)
            assert np.linalg.norm(face @ placed_b1) < 1e-12
            placed_b2 = np.einsum("ab,c->acb", v.reshape(2, 2), w).reshape(-1)
            assert np.linalg.norm(face @ placed_b2) < 1e-12


def _compress(x, blocks):
    """Flat blocks sqrt(m) V^dag Sym(x) V of a full-space matrix."""
    z = project_permutation_invariant(x, blocks.dims)
    return np.concatenate([math.sqrt(m) * (v.conj().T @ z @ v).ravel() for v, m in zip(block_isometries(blocks), blocks.weights)])


def _block_affine(blocks, x, target):
    v = _compress(x, blocks)
    return lift_blocks(blocks, project_affine(blocks, v, blocks.compress(target.mat)))


def test_structured_projector_matches_closed_form_for_full_rank():
    # the block affine projection, lifted back, is the dense projection onto
    # invariant operators with the target marginal
    rng = np.random.default_rng(59)
    for d_a, d_b, k in [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 3), (3, 3, 3)]:
        dims = (d_a,) + (d_b,) * k
        blocks = _extension_blocks(d_a, d_b, k, SYMMETRIC)
        target = random_density((d_a, d_b), rng)
        x = _random_hermitian(d_a * d_b**k, rng)
        assert np.max(np.abs(_block_affine(blocks, x, target) - project_invariant_marginal(x, dims, target))) < 1e-10


# rank-deficient marginals and the stop reason of their symmetric solve
RANK_DEFICIENT = [
    (bell_state([0.0, 0.5, 0.3, 0.2]), 2, "feasible-gap"),
    (bell_state([0.4, 0.3, 0.3, 0.0]), 3, "feasible-gap"),
    (bell_state([0.35, 0.65, 0.0, 0.0]), 3, "face-reach"),
    (werner_state(3, 1.0), 2, "feasible-gap"),
]


@pytest.mark.parametrize("rho,k", [case[:2] for case in RANK_DEFICIENT])
def test_block_face_projection_matches_dense_reference(rho, k):
    rng = np.random.default_rng(62 + k)
    d_a, d_b = rho.dims
    dims = (d_a,) + (d_b,) * k
    kernel, frame = _state_kernel(rho)
    blocks = _face_blocks(_extension_blocks(d_a, d_b, k, SYMMETRIC), kernel, frame)
    x = _random_hermitian(d_a * d_b**k, rng)
    dense = dense_face_affine_projection(x, dims, kernel, rho.mat)
    assert np.max(np.abs(_block_affine(blocks, x, rho) - dense)) < 1e-10


def _assert_stored_placements(blocks):
    """Each stored placement is the one rebuilt from the full tensor, and they stand for all k.

    A block stores all k placements, or one when every rebuilt placement
    equals it; amap then matches the map built from all k.  A face block
    stores r rows per placement, lifted back to AB through its frame.
    """
    d_a, d_b, k = blocks.dims[0], blocks.dims[1], len(blocks.dims) - 1
    for stored, iso in zip(blocks.placed, block_isometries(blocks)):
        s = iso.shape[1]
        assert stored.shape[1] == blocks.rank and not stored.flags.writeable
        placed = lifted_placements(blocks, stored)
        assert placed.shape in [(count, d_a * d_b, d_b ** (k - 1), s) for count in (1, k)]
        rebuilt = rebuilt_placements(iso, blocks.dims)
        for i, p in enumerate(placed):
            assert np.max(np.abs(p - rebuilt[i])) < 1e-14
        if len(placed) == 1:
            assert max(np.max(np.abs(p - placed[0])) for p in rebuilt) < 1e-14
    assert np.max(np.abs(blocks.amap - placed_amap(blocks))) < 1e-12


@pytest.mark.parametrize("rho,k,stop", RANK_DEFICIENT)
def test_face_blocks_store_the_placements_of_their_isometries(rho, k, stop):
    # a face block is stored as its parent's placements times null(R V); each
    # must equal the placement of the face isometry V null(R V), rebuilt by
    # moving B_i next to A on the full tensor
    d_a, d_b = rho.dims
    parent = _extension_blocks(d_a, d_b, k, SYMMETRIC)
    blocks = _face_blocks(parent, *_state_kernel(rho))
    assert blocks.placed
    _assert_stored_placements(parent)
    _assert_stored_placements(blocks)
    for iso in block_isometries(blocks):
        s = iso.shape[1]
        assert np.max(np.abs(iso.conj().T @ iso - np.eye(s))) < 1e-12
        # inside one block of the flavor: V null(R V) for that block's V
        assert min(np.max(np.abs(v @ (v.conj().T @ iso) - iso)) for v in block_isometries(parent)) < 1e-12
    # and the face-reach certificate reads its residual off those placements
    res = oracle_feasibility(ExtensionProblem(rho, k, SYMMETRIC))
    assert res.stop_reason == stop
    if stop == "face-reach":
        assert res.certificate["marginal_residual"] == pytest.approx(res.residual, rel=1e-12)
        assert res.certificate["dual_trace"] == pytest.approx(-res.certificate["marginal_residual"] ** 2, rel=1e-12)


@pytest.mark.parametrize("flavor", [SYMMETRIC, BOSONIC])
@pytest.mark.parametrize(
    "rho,k",
    [case[:2] for case in RANK_DEFICIENT]
    + [
        (werner_state(4, -1.0), 2),
        (werner_state(4, 1.0), 2),
        (_local_frame(bell_state([0.6, 0.0, 0.21, 0.19]), np.random.default_rng(69)), 3),
    ],
)
def test_face_blocks_solve_on_the_range_of_the_marginal(rho, k, flavor):
    # a face stores its placements as F^dag p for the range basis F of rho,
    # so amap reads the r^2 entries of F^dag (marginal) F: it is the map of
    # the uncompressed placements under F^dag (.) F, and loses nothing of it
    d_a, d_b = rho.dims
    n_ab = d_a * d_b
    parent = _extension_blocks(d_a, d_b, k, flavor)
    assert parent.frame is None and parent.rank == n_ab and parent.amap.shape[0] == n_ab * n_ab
    kernel, frame = _state_kernel(rho)
    r = frame.shape[1]
    assert kernel.shape[1] + r == n_ab
    blocks = _face_blocks(parent, kernel, frame)
    assert blocks.frame is frame and blocks.rank == r
    assert blocks.amap.shape[0] == r * r and blocks.gpinv.shape == (r * r, r * r)
    full = _make_blocks(blocks.dims, [lifted_placements(blocks, p) for p in blocks.placed], blocks.weights)
    assert full.amap.shape == (n_ab * n_ab, blocks.amap.shape[1])
    assert np.max(np.abs(blocks.amap - compress_rows(blocks, full.amap)), initial=0.0) < 1e-12
    # every column of the uncompressed map is F (column) F^dag
    lifted = np.einsum("ar,rsc,bs->abc", frame, blocks.amap.reshape(r, r, -1), frame.conj()).reshape(n_ab * n_ab, -1)
    assert np.max(np.abs(full.amap - lifted), initial=0.0) < 1e-12
    # compress and expand move between AB and the r x r duals
    h = _random_hermitian(r, np.random.default_rng(70)).ravel()
    assert np.max(np.abs(blocks.compress(blocks.expand(h)) - h)) < 1e-12


@pytest.mark.parametrize("flavor", [SYMMETRIC, BOSONIC])
@pytest.mark.parametrize(
    "rho,k",
    [(werner_state(2, 0.3), 3), (bell_state([0.4, 0.3, 0.3, 0.0]), 3), (werner_state(3, 0.2), 4), (werner_state(3, 1.0), 2)],
)
def test_symmetric_block_is_stored_once(rho, k, flavor):
    # lambda = (k) has columns symmetric in B_1..B_k: its k placements are one
    # array, stored once; every other block keeps all k, plain or on a face
    d_a, d_b = rho.dims
    blocks = _extension_blocks(d_a, d_b, k, flavor)
    counts = [len(p) for p in blocks.placed]
    assert counts == ([1] if flavor == BOSONIC else [1] + [k] * (len(counts) - 1))
    _assert_stored_placements(blocks)
    face = _state_kernel(rho)
    if face is not None:
        _assert_stored_placements(_face_blocks(blocks, *face))


@pytest.mark.parametrize("d_a,d_b,k", [(2, 2, 3), (2, 2, 5), (2, 3, 3), (3, 3, 2), (2, 3, 4)])
def test_blocks_are_an_isometry_of_invariant_operators(d_a, d_b, k):
    rng = np.random.default_rng(63 + k)
    dims = (d_a,) + (d_b,) * k
    blocks = _extension_blocks(d_a, d_b, k, SYMMETRIC)
    # one copy per shape: Weyl isometries times Specht multiplicities fill B^k
    assert sum(m * v.shape[1] for m, v in zip(blocks.weights, block_isometries(blocks))) == d_a * d_b**k
    for v in block_isometries(blocks):
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-12
    x = project_permutation_invariant(_random_hermitian(d_a * d_b**k, rng), dims)
    flat = _compress(x, blocks)
    assert np.max(np.abs(lift_blocks(blocks, flat) - x)) < 1e-12
    assert abs(np.linalg.norm(flat) - np.linalg.norm(x)) < 1e-12
    # the marginal map agrees with the partial trace of the lift
    assert np.max(np.abs(blocks.marginal(flat).reshape(d_a * d_b, -1) - _ptrace_mat(x, dims, [0, 1]))) < 1e-12
    # so do the certificate's marginal and smallest eigenvalue, which do not use the marginal map
    assert np.max(np.abs(blocks.placed_marginal(flat) - _ptrace_mat(x, dims, [0, 1]))) < 1e-12
    assert abs(blocks.min_eig(flat) - np.linalg.eigvalsh(x)[0]) < 1e-12


@pytest.mark.parametrize(
    "rho,k,flavor",
    [
        (bell_state([0.4, 0.3, 0.3, 0.0]), 3, SYMMETRIC),
        (werner_state(2, 0.3), 4, BOSONIC),
        (werner_state(2, 0.3), 5, BOSONIC),
        (maximally_mixed([2, 3]), 3, BOSONIC),
        (bell_state([0.4, 0.3, 0.3, 0.0]), 3, BOSONIC),
        (werner_state(3, 1.0), 2, SYMMETRIC),
        (werner_state(4, -1.0), 2, SYMMETRIC),
        (_local_frame(bell_state([0.6, 0.0, 0.21, 0.19]), np.random.default_rng(69)), 3, SYMMETRIC),
    ],
)
def test_certificate_reads_the_lifted_operator(rho, k, flavor):
    # on any flat iterate: the lifted spectrum is the block spectra, each
    # m_b times, plus zeros off the span of the blocks; on a face the
    # marginal is read on r rows and lifted back to AB through the frame
    rng = np.random.default_rng(65 + k)
    d_a, d_b = rho.dims
    blocks = _extension_blocks(d_a, d_b, k, flavor)
    if _state_kernel(rho) is not None:
        blocks = _face_blocks(blocks, *_state_kernel(rho))
        assert blocks.rank < d_a * d_b
    flat = np.concatenate([_random_hermitian(s, rng).ravel() for s in blocks.sides])
    big = lift_blocks(blocks, flat)
    spectra = [np.repeat(np.linalg.eigvalsh(b) / math.sqrt(m), m) for m, b in zip(blocks.weights, blocks.split(flat))]
    spectrum = np.concatenate(spectra)
    spectrum = np.sort(np.concatenate([spectrum, np.zeros(big.shape[0] - spectrum.size)]))
    assert np.max(np.abs(np.linalg.eigvalsh(big) - spectrum)) < 1e-10
    assert blocks.min_eig(flat) == pytest.approx(float(np.min(np.concatenate(spectra))), abs=1e-12)
    assert np.max(np.abs(blocks.placed_marginal(flat) - _ptrace_mat(big, blocks.dims, [0, 1]))) < 1e-12


def test_certificate_stays_on_the_blocks():
    # bosonic qubits at k=12: one block of side 26 in a full space of side
    # 8192, where a dense lift would take about 1 GB and a full eigensolve
    problem = ExtensionProblem(werner_state(2, 0.3), 12, BOSONIC)
    oracle_feasibility(problem, OracleConfig(max_iters=1))  # builds the cached blocks
    start = time.perf_counter()
    res = oracle_feasibility(problem)
    elapsed = time.perf_counter() - start
    assert res.block_sides == (26,)
    assert res.status == FEASIBLE and res.certificate["marginal_residual"] <= OracleConfig().tol_gap
    # read on the symmetric subspace, where this interior iterate is positive definite
    assert res.certificate["min_eig"] > 0
    assert elapsed < 2.0


def test_specht_and_weyl_dimensions():
    assert [_specht_dim(s) for s in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]] == [1, 3, 2, 3, 1]
    assert _specht_dim((3, 2)) == 5 and _specht_dim((4, 2, 1)) == 35
    # GL(d) irrep dimension: semistandard tableaux with entries up to d
    assert _weyl_isometry(2, (2, 1)).shape == (8, 2)
    assert _weyl_isometry(3, (2, 1)).shape == (27, 8)
    assert _weyl_isometry(3, (1, 1, 1)).shape == (27, 1)
    assert _weyl_isometry(2, (3, 2)).shape == (32, 2)


@pytest.mark.parametrize("k", [2, 3])
def test_oracle_werner_transition_location(k):
    # the feasibility transition sits within +/- 0.02 of -(d-1)/k at d=2
    threshold = -1 / k
    lo = int(round((threshold - 0.08) * 100))
    hi = int(round((threshold + 0.08) * 100))
    statuses = {}
    for i in range(lo, hi + 1):
        psi = i / 100
        problem = ExtensionProblem(werner_state(2, psi), k, SYMMETRIC)
        res = oracle_feasibility(problem)
        statuses[psi] = res.status
        assert res.status != INFEASIBLE or certificate_holds(res, problem), psi
    infeasible = [psi for psi, s in statuses.items() if s == INFEASIBLE]
    feasible = [psi for psi, s in statuses.items() if s == FEASIBLE]
    assert infeasible and feasible
    assert max(infeasible) <= threshold + 0.02 + 1e-9
    assert min(feasible) >= threshold - 0.02 - 1e-9


def test_oracle_bell_soundness_full_grid():
    # 20^3 simplex grid against the exact inequality, outside a 0.02 band
    from test_acceptance import _exact_boundary_cloud, _simplex_grid

    cloud = _exact_boundary_cloud()
    mismatches = undecided = checked = uncertified = 0
    for p1, p2, p3, p4 in _simplex_grid(20):
        point = np.array([p1, p2, p3])
        if float(np.sqrt(((cloud - point) ** 2).sum(axis=1).min())) < 0.02:
            continue
        checked += 1
        expected = FEASIBLE if bell_exact_2ext((p1, p2, p3, p4)) else INFEASIBLE
        problem = ExtensionProblem(bell_state((p1, p2, p3, p4)), 2, SYMMETRIC)
        res = oracle_feasibility(problem)
        if res.status == UNDECIDED:
            undecided += 1
        elif res.status != expected:
            mismatches += 1
        if res.status == INFEASIBLE:
            uncertified += not certificate_holds(res, problem)
    assert checked > 1000
    assert mismatches == 0 and undecided == 0 and uncertified == 0


def test_oracle_resource_guard_and_config():
    with pytest.raises(ResourceLimitError):
        oracle_feasibility(ExtensionProblem(maximally_mixed([2, 2]), 8, SYMMETRIC))
    # a numpy k is stored as int: 2 ** np.int64(64) would wrap to 0 and pass the guard
    with pytest.raises(ResourceLimitError, match="above the budget"):
        oracle_feasibility(ExtensionProblem(maximally_mixed([2, 2]), np.int64(64), SYMMETRIC))
    # the budget is the one setting: an integer >= 1, refused as a ValidationError otherwise
    assert [f.name for f in dataclasses.fields(OracleConfig)] == ["max_iters"]
    assert (OracleConfig.tol_feasible, OracleConfig.tol_gap, OracleConfig.dim_limit) == (1e-7, 1e-6, 256)
    assert OracleConfig(max_iters=np.int64(7)).max_iters == 7
    for bad in (0, -1, 2.5, 3.0, float("nan"), float("inf"), True, "5", None):
        with pytest.raises(ValidationError, match="max_iters must be an integer >= 1"):
            OracleConfig(max_iters=bad)
    cfg = OracleConfig(max_iters=3)
    res = oracle_feasibility(NEWTON_UNDECIDED_AT_3, cfg)
    assert res.status == UNDECIDED
    assert res.iterations == 3
    assert res.dual_witness is None and "certified" not in res.certificate


def test_check_reach_refuses_wide_spaces_in_bounded_time():
    _check_reach(2, 2, 7, SYMMETRIC)
    _check_reach(2, 2, 12, BOSONIC)
    for d_a, d_b, k, flavor, message in [
        (2, 2, 8, SYMMETRIC, "exceeds the limit 256"),
        (2, 2, 128, BOSONIC, r"block isometries on 2\^128 needs"),
        (2, 3, 5, SYMMETRIC, "exceeds the limit 256"),
    ]:
        with pytest.raises(ResourceLimitError, match=message):
            _check_reach(d_a, d_b, k, flavor)
    # the bosonic side stays small, but the block isometries have d_B^k rows
    for d_a, d_b, k in [(2, 2, 13), (1, 3, 8), (2, 4, 7)]:
        with pytest.raises(ResourceLimitError, match=rf"block isometries on {d_b}\^{k} needs"):
            _check_reach(d_a, d_b, k, BOSONIC)
    with pytest.raises(ResourceLimitError, match=r"block isometries on 2\^13 needs"):
        oracle_feasibility(ExtensionProblem(maximally_mixed([2, 2]), 13, BOSONIC))
    # a huge k is refused without forming d_B^k
    for flavor, message in [(SYMMETRIC, r"on 3\^1000000000 needs"), (BOSONIC, r"on 3\^1000000000 needs")]:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=message):
            _check_reach(2, 3, 10**9, flavor)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "d_a,d_b,k,flavor,error",
    [
        # the Gram matrix and Newton's Hessian are n_AB^2 x n_AB^2
        (16, 16, 1, SYMMETRIC, ResourceLimitError),
        (8, 8, 1, SYMMETRIC, ResourceLimitError),
        (5, 5, 2, SYMMETRIC, ResourceLimitError),
        (5, 5, 2, BOSONIC, ResourceLimitError),
        # a one-dimensional B never widens the space, whatever k
        (2, 1, 63, SYMMETRIC, LayoutError),
        (2, 1, 10**9, SYMMETRIC, LayoutError),
        (2, 1, 10**9, BOSONIC, LayoutError),
    ],
)
def test_check_reach_refuses_wide_duals_and_a_trivial_b(d_a, d_b, k, flavor, error):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(error):
            _check_reach(d_a, d_b, k, flavor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.1
    assert peak < 1 << 20


def test_check_reach_admits_its_widest_layouts():
    # n_AB^2 = 256 with an extension side of 256, 240, 256 and 243
    for d_a, d_b, k, flavor in [(4, 4, 3, SYMMETRIC), (2, 8, 3, BOSONIC), (1, 16, 2, SYMMETRIC), (3, 3, 4, SYMMETRIC)]:
        _check_reach(d_a, d_b, k, flavor)
    # d_B = 1 raised numpy's 64-axis limit from the block set-up at k = 63
    with pytest.raises(LayoutError, match="at least 2"):
        oracle_feasibility(ExtensionProblem(maximally_mixed([2, 1]), 63))


def test_check_reach_admits_the_layouts_the_dim_guard_admitted():
    # the bytes of the side-d_B^k identity replace the old d_B^k <= 4096: no layout changes side
    for d_a, d_b in itertools.product(range(1, 17), repeat=2):
        if d_a * d_b > 16:
            continue
        for k, flavor in itertools.product(range(1, 65), (SYMMETRIC, BOSONIC)):
            try:
                _check_reach(d_a, d_b, k, flavor)
                admits = True
            except (ResourceLimitError, LayoutError):
                admits = False
            assert admits == dim_guard_reach_admits(d_a, d_b, k, flavor), (d_a, d_b, k, flavor)


# (state, k, flavor) -> (status, Newton steps).  The statuses were recorded
# with the dense full-space oracle that the block iteration replaced;
# face-reach solves take no step.
GOLDEN = [
    (("werner", 2, -0.2), 3, SYMMETRIC, FEASIBLE, 2),
    (("werner", 2, -0.5), 3, SYMMETRIC, INFEASIBLE, 1),
    (("werner", 2, -0.8), 2, SYMMETRIC, INFEASIBLE, 1),
    (("werner", 2, -0.3), 2, SYMMETRIC, FEASIBLE, 2),
    (("werner", 2, -0.8), 4, SYMMETRIC, INFEASIBLE, 1),
    (("werner", 3, -0.9), 2, SYMMETRIC, FEASIBLE, 3),
    (("werner", 3, 0.2), 3, SYMMETRIC, FEASIBLE, 1),
    (("werner", 2, -0.8), 5, SYMMETRIC, INFEASIBLE, 1),
    (("bell", (0.7, 0.1, 0.1, 0.1)), 2, SYMMETRIC, FEASIBLE, 2),
    (("bell", (0.5, 0.3, 0.15, 0.05)), 3, SYMMETRIC, FEASIBLE, 6),
    (("bell", (0.0, 1 / 9, 3 / 9, 5 / 9)), 2, SYMMETRIC, FEASIBLE, 1),
    (("bell", (0.8, 0.2, 0.0, 0.0)), 2, SYMMETRIC, INFEASIBLE, 0),
    (("werner", 2, -1.0), 3, SYMMETRIC, INFEASIBLE, 0),
    (("bell", (0.4, 0.3, 0.3, 0.0)), 3, SYMMETRIC, FEASIBLE, 1),
    (("werner", 3, 1.0), 2, SYMMETRIC, FEASIBLE, 1),
    (("werner", 2, -0.8), 4, BOSONIC, INFEASIBLE, 1),
    (("werner", 2, 0.3), 6, BOSONIC, FEASIBLE, 1),
    (("bell", (0.7, 0.1, 0.1, 0.1)), 2, BOSONIC, FEASIBLE, 1),
    (("werner", 3, -0.9), 3, BOSONIC, INFEASIBLE, 1),
    (("bell", (0.35, 0.65, 0.0, 0.0)), 2, BOSONIC, INFEASIBLE, 0),
    (("werner", 2, -1.0), 2, BOSONIC, INFEASIBLE, 0),
    (("bell", (0.4, 0.3, 0.3, 0.0)), 3, BOSONIC, FEASIBLE, 1),
    # rank-deficient marginals whose Newton system shrinks to the r^2 entries
    # of their range, recorded with the n_AB^2 dual: Werner psi = -1 (r = 3
    # at d = 3, 6 at d = 4) and psi = 1 (r = 6 and 10), and a rank-3 Bell
    # state in a local frame drawn from a seed, whose range basis is complex
    (("werner", 3, -1.0), 2, SYMMETRIC, FEASIBLE, 1),
    (("werner", 3, -1.0), 3, SYMMETRIC, INFEASIBLE, 0),
    (("werner", 3, 1.0), 3, SYMMETRIC, FEASIBLE, 1),
    (("werner", 3, -1.0), 4, SYMMETRIC, INFEASIBLE, 0),
    (("werner", 3, 1.0), 4, SYMMETRIC, FEASIBLE, 1),
    (("werner", 3, -1.0), 2, BOSONIC, INFEASIBLE, 0),
    (("werner", 3, 1.0), 2, BOSONIC, FEASIBLE, 1),
    (("werner", 3, -1.0), 3, BOSONIC, INFEASIBLE, 0),
    (("werner", 3, 1.0), 3, BOSONIC, FEASIBLE, 1),
    (("werner", 3, -1.0), 4, BOSONIC, INFEASIBLE, 0),
    (("werner", 3, 1.0), 4, BOSONIC, FEASIBLE, 1),
    (("werner", 4, -1.0), 2, SYMMETRIC, FEASIBLE, 1),
    (("werner", 4, 1.0), 2, SYMMETRIC, FEASIBLE, 1),
    (("werner", 4, -1.0), 2, BOSONIC, INFEASIBLE, 0),
    (("werner", 4, 1.0), 2, BOSONIC, FEASIBLE, 1),
    (("rotated bell", (0.6, 0.0, 0.21, 0.19), 69), 3, SYMMETRIC, FEASIBLE, 4),
]


def _golden_problem(state, k, flavor):
    if state[0] == "werner":
        rho = werner_state(*state[1:])
    elif state[0] == "bell":
        rho = bell_state(state[1])
    else:
        rho = _local_frame(bell_state(state[1]), np.random.default_rng(state[2]))
    return ExtensionProblem(rho, k, flavor)


def _solve_blocks(problem):
    """The blocks oracle_feasibility iterates on: the flavor's, on the forced support face of a singular marginal."""
    d_a, d_b = problem.marginal.dims
    blocks = _extension_blocks(d_a, d_b, problem.k, problem.flavor)
    face = _state_kernel(problem.marginal)
    return blocks if face is None else _face_blocks(blocks, *face)


def test_oracle_matches_golden_statuses_and_iterations():
    for state, k, flavor, status, steps in GOLDEN:
        problem = _golden_problem(state, k, flavor)
        res = oracle_feasibility(problem)
        assert (res.status, res.iterations) == (status, steps), (state, k, flavor)
        if status == INFEASIBLE:
            assert res.stop_reason == ("dual-certificate" if steps else "face-reach")
            assert certificate_holds(res, problem), (state, k, flavor)
        else:
            assert res.dual_witness is None and "certified" not in res.certificate


def _factorization_dtypes(monkeypatch):
    """The dtypes of the matrices np.linalg.eigh and np.linalg.cholesky are called on, from here on."""
    seen = []

    def recording(factor):
        def recorded(a, *args, **kwargs):
            seen.append(np.asarray(a).dtype)
            return factor(a, *args, **kwargs)
        return recorded

    for name in ("eigh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    return seen


def test_real_marginals_solve_in_real_arithmetic_with_the_complex_verdicts(monkeypatch):
    # every real GOLDEN marginal and the Werner psi = +-1 faces, solved once
    # in float64 and once with the realness decision forced to complex: the
    # same verdict, stop reason, steps and blocks, and the same certificate
    # up to rounding
    problems = [_golden_problem(state, k, flavor) for state, k, flavor, _, _ in GOLDEN]
    problems += [
        ExtensionProblem(werner_state(d, psi), k, flavor)
        for d in (2, 3)
        for psi in (-1.0, 1.0)
        for k in (2, 3)
        for flavor in (SYMMETRIC, BOSONIC)
    ]
    real = [p for p in problems if not p.marginal.mat.imag.any()]
    assert len(real) == len(problems) - 1  # all but the rotated Bell state
    seen = _factorization_dtypes(monkeypatch)
    solved = []
    for problem in real:
        seen.clear()
        res = oracle_feasibility(problem)
        # no complex factorization: not the kernel test, nor the start's Cholesky, nor any block of any step
        assert seen and all(dt == np.float64 for dt in seen), problem
        if res.dual_witness is not None:
            assert res.dual_witness.dtype == np.float64
        solved.append(res)
    monkeypatch.setattr(oracle_mod, "_solve_matrix", lambda rho: rho.mat)
    for problem, res in zip(real, solved):
        seen.clear()
        ref = oracle_feasibility(problem)
        assert np.complex128 in seen
        assert (res.status, res.stop_reason, res.iterations, res.block_sides) == (
            ref.status, ref.stop_reason, ref.iterations, ref.block_sides), problem
        assert res.certificate.keys() == ref.certificate.keys()
        for key, value in ref.certificate.items():
            if key == "certified":
                assert res.certificate[key] is value
            elif not (math.isnan(value) and math.isnan(res.certificate[key])):
                assert res.certificate[key] == pytest.approx(value, rel=0, abs=1e-12), (problem, key)
        if ref.dual_witness is not None:
            assert np.max(np.abs(res.dual_witness - ref.dual_witness)) < 1e-12


def test_complex_marginals_still_solve_in_complex_arithmetic(monkeypatch):
    # a Bell state in a random local frame has a complex marginal: its kernel
    # test, its blocks' Cholesky factors and eigensolves and its witness stay
    # complex, full rank or on a face
    rng = np.random.default_rng(69)
    seen = _factorization_dtypes(monkeypatch)
    for p, k in [((0.6, 0.0, 0.21, 0.19), 3), ((0.5, 0.3, 0.15, 0.05), 2), ((0.8, 0.2, 0.0, 0.0), 2)]:
        problem = ExtensionProblem(_local_frame(bell_state(p), rng), k, SYMMETRIC)
        assert problem.marginal.mat.imag.any()
        seen.clear()
        res = oracle_feasibility(problem)
        assert seen and all(dt == np.complex128 for dt in seen), p
        if res.dual_witness is not None:
            assert res.dual_witness.dtype == np.complex128


def test_face_null_spaces_match_the_plain_svd():
    # _nullspace takes the SVD of the s x s factor of a QR of tall rows: on
    # every GOLDEN face it keeps the dimensions a plain SVD of the rows gives
    faces = 0
    for state, k, flavor, _, _ in GOLDEN:
        rho = _golden_problem(state, k, flavor).marginal
        face = _state_kernel(rho)
        if face is None:
            continue
        kernel = face[0]
        d_a, d_b = rho.dims
        for p in _extension_blocks(d_a, d_b, k, flavor).placed:
            count, n_ab, _, s = p.shape
            rows = (kernel.conj().T @ p.reshape(count, n_ab, -1)).reshape(-1, s)
            svals = np.linalg.svd(rows, compute_uv=False)
            rank = int(np.sum(svals > oracle_mod.RANK_RTOL * svals[0]))
            null = _nullspace(rows)
            assert null.shape == (s, s - rank), (state, k, flavor)
            assert np.max(np.abs(null.conj().T @ null - np.eye(s - rank)), initial=0.0) < 1e-12
            assert np.max(np.abs(rows @ null), initial=0.0) < 1e-12
            faces += 1
    assert faces > 30


# the (d, k, flavor) of every full-rank block set the oracle benchmark workloads solve on, d_A = d_B = d
WORKLOAD_LAYOUTS = [(2, k, SYMMETRIC) for k in range(2, 6)] + [(3, k, SYMMETRIC) for k in (2, 3)]
WORKLOAD_LAYOUTS += [(2, k, BOSONIC) for k in range(2, 9)] + [(3, k, BOSONIC) for k in range(2, 5)]


def _near_face_band():
    """Werner d=3 at psi = -1 and 1 and d=2 at psi = 1, each mixed with eps I/n for eps = 0 and 1e-14 to 1e-4."""
    out = []
    for d, psi in ((3, -1.0), (3, 1.0), (2, 1.0)):
        rho = werner_state(d, psi)
        n = rho.side
        for eps in [0.0] + [10 ** (e / 2) for e in range(-28, -7)]:
            out.append(DensityMatrix((1 - eps) * rho.mat + eps * np.eye(n) / n, rho.dims))
    return out


def test_full_rank_test_reads_the_validation_spectrum():
    # a marginal whose validated smallest eigenvalue is above 2 KERNEL_TOL skips
    # the kernel eigensolve; every marginal still gets the decision, and the
    # kernel and frame widths, of a plain eigh of the matrix the solve reads
    marginals = [_golden_problem(state, k, flavor).marginal for state, k, flavor, _, _ in GOLDEN] + _near_face_band()
    skipped = checked_full = 0
    for rho in marginals:
        eigs = np.linalg.eigh(_solve_matrix(rho))[0]
        null = int(np.sum(eigs <= oracle_mod.KERNEL_TOL))
        face = _state_kernel(rho)
        if null == 0:
            assert face is None, rho
            skipped += rho._min_eig > 2 * oracle_mod.KERNEL_TOL
            checked_full += rho._min_eig <= 2 * oracle_mod.KERNEL_TOL
        else:
            assert (face[0].shape[1], face[1].shape[1]) == (null, rho.side - null)
    # the band crosses the switch: eigenvalues eps/n between KERNEL_TOL and twice it take the eigensolve
    assert skipped > 20 and checked_full > 0


def test_gram_pseudoinverse_matches_pinv():
    # gpinv from one eigh of the PSD Gram matrix, cut at RANK_RTOL times its
    # largest eigenvalue, is pinv's on every workload layout and GOLDEN face
    blocks_sets = [_extension_blocks(d, d, k, flavor) for d, k, flavor in WORKLOAD_LAYOUTS]
    blocks_sets += [_solve_blocks(_golden_problem(state, k, flavor)) for state, k, flavor, _, _ in GOLDEN]
    faces = 0
    for blocks in blocks_sets:
        faces += blocks.frame is not None
        gram = blocks.amap @ blocks.amap.conj().T
        ref = np.linalg.pinv(gram, rcond=oracle_mod.RANK_RTOL, hermitian=True)
        assert blocks.gpinv.dtype == ref.dtype
        assert np.max(np.abs(blocks.gpinv - ref)) < 1e-12, (blocks.dims, blocks.sides)
    assert faces == 24


def test_block_plans_are_the_expressions_they_replace():
    # the per-layout plan fields, read-only and bit for bit what a solve
    # computed on every call before, on every workload layout and GOLDEN face
    blocks_sets = [_extension_blocks(d, d, k, flavor) for d, k, flavor in WORKLOAD_LAYOUTS]
    blocks_sets += [_solve_blocks(_golden_problem(state, k, flavor)) for state, k, flavor, _, _ in GOLDEN]
    rng = np.random.default_rng(70)
    kinds = set()
    for blocks in blocks_sets:
        kinds.add((blocks.frame is not None, blocks.amap.dtype.kind))
        offsets = np.cumsum([0, *(s * s for s in blocks.sides)]).tolist()
        assert blocks.runs == tuple(zip(offsets, offsets[1:], blocks.sides))
        assert blocks.scales == tuple(math.sqrt(m) / len(p) for p, m in zip(blocks.placed, blocks.weights))
        assert blocks.roots == tuple(math.sqrt(m) for m in blocks.weights)
        for p, v in zip(blocks.placed, blocks.rows):
            ref = p.swapaxes(0, 1).reshape(blocks.rank, -1)
            assert v.dtype == ref.dtype and np.array_equal(v, ref) and not v.flags.writeable
        transpose = blocks.transpose
        assert not transpose.flags.writeable and np.array_equal(np.sort(transpose), np.arange(offsets[-1]))
        n = offsets[-1]
        for flat in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            for stack in (flat, np.array([flat, -flat])):
                ref = [hermitize(b) for b in blocks.split(stack)]
                assert all(np.array_equal(a, b) for a, b in zip(blocks.split(blocks.hermitian(stack)), ref))
        with pytest.raises(dataclasses.FrozenInstanceError):
            blocks.transpose = transpose
    assert kinds == {(False, "f"), (True, "f"), (True, "c")}


def test_dual_witness_reads_the_same_on_the_blocks_and_densely():
    # the certificate's smallest eigenvalue, read on the blocks through amap^dag,
    # is the dense lift's on the flavor space and the forced face
    for state, k, flavor, status, _ in GOLDEN:
        problem = _golden_problem(state, k, flavor)
        d_a, d_b = problem.marginal.dims
        if status != INFEASIBLE or d_a * d_b**k > DENSE_CHECK_SIDE:
            continue
        res = oracle_feasibility(problem)
        witness = res.dual_witness
        assert witness.shape == (d_a * d_b, d_a * d_b) and not witness.flags.writeable
        assert np.max(np.abs(witness - witness.conj().T)) == 0.0
        low, trace = dense_dual_check(problem, witness)
        assert trace == res.certificate["dual_trace"] < 0
        assert low == pytest.approx(res.certificate["dual_min_eig"], abs=1e-12)
        assert low >= -1e-12


def test_oracle_stop_reasons_and_telemetry():
    rng = np.random.default_rng(64)
    prod = tensor_product(random_density([2], rng), random_density([2], rng))
    cases = [
        (ExtensionProblem(prod, 3, SYMMETRIC), None, FEASIBLE, "feasible-gap"),
        (ExtensionProblem(werner_state(2, -0.5), 3, SYMMETRIC), None, INFEASIBLE, "dual-certificate"),
        (NEWTON_UNDECIDED_AT_3, OracleConfig(max_iters=3), UNDECIDED, "max-iters"),
        (ExtensionProblem(bell_state([0.8, 0.2, 0, 0]), 2, SYMMETRIC), None, INFEASIBLE, "face-reach"),
    ]
    for problem, cfg, status, reason in cases:
        res = oracle_feasibility(problem, cfg)
        assert (res.status, res.stop_reason) == (status, reason)
        if res.iterations:
            assert [i for i, _ in res.gap_trace] == list(range(1, res.iterations + 1))
            assert res.gap_trace[-1] == (res.iterations, res.residual)
        else:
            assert res.gap_trace == ()
    # the face check takes no Newton step; max_iters caps the steps
    assert (res.stop_reason, res.iterations) == ("face-reach", 0)
    res = oracle_feasibility(NEWTON_UNDECIDED_AT_3, OracleConfig(max_iters=3))
    assert res.iterations == 3 and [i for i, _ in res.gap_trace] == [1, 2, 3]
    res = oracle_feasibility(NEWTON_UNDECIDED_AT_3)
    assert (res.status, res.stop_reason, res.iterations) == (FEASIBLE, "feasible-gap", 6)
    # the trace holds the gap tested at each step, the last one the verdict's
    res = oracle_feasibility(ExtensionProblem(werner_state(2, -0.5), 3, SYMMETRIC))
    assert (res.iterations, res.gap_trace) == (1, ((1, res.residual),))
    # one block per shape: lambda = (3) and (2, 1) for qubits, each times d_A = 2
    assert res.block_sides == (8, 4)
    assert oracle_feasibility(ExtensionProblem(werner_state(2, -0.5), 3, BOSONIC)).block_sides == (8,)
    # within tol_gap of the Werner k=3 threshold no certificate has the margin:
    # Newton spends its default budget of 30 steps
    problem = ExtensionProblem(werner_state(2, -1 / 3 - 1e-6), 3, SYMMETRIC)
    res = oracle_feasibility(problem)
    assert OracleConfig().max_iters == 30
    assert (res.status, res.stop_reason, res.iterations) == (UNDECIDED, "max-iters", 30)
    assert len(res.gap_trace) == 30 and res.gap_trace[-1] == (30, res.residual)
    assert res.dual_witness is None and "certified" not in res.certificate
    # a longer run keeps one point per step, from the first gap to the verdict's
    first_gap = res.gap_trace[0]
    res = oracle_feasibility(problem, OracleConfig(max_iters=100))
    assert (res.status, res.stop_reason, res.iterations) == (UNDECIDED, "max-iters", 100)
    assert [i for i, _ in res.gap_trace] == list(range(1, 101))
    assert res.gap_trace[0] == first_gap and res.gap_trace[-1] == (100, res.residual)


def _counting_factorizations(monkeypatch, names=("eigvalsh", "eigh", "cholesky")):
    """Patch the named np.linalg functions and _dual_point to count their calls; eigh's inputs are kept."""
    counts = dict.fromkeys(names + ("dual points",), 0)
    eigh_inputs = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if name == "eigh":
                eigh_inputs.append(args[0])
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(oracle_mod, "_dual_point", counting("dual points", oracle_mod._dual_point))
    return counts, eigh_inputs


def test_newton_eigensolves_each_block_once_per_dual_point(monkeypatch):
    # the start tests each block of its point with one Cholesky, up to the
    # first that is not positive definite; a positive definite start is its
    # own projection and stops Feasible at step 1 without an eigh, any other
    # start is a dual point.  The witness shift reads the spectra of Newton's
    # dual point, and the verdict reads min_eig of x and dual_min_eig of W'
    # from one eigvalsh per block, whatever the step count; a full-rank
    # marginal takes no kernel eigensolve, its validation spectrum settles
    # full rank
    face = ExtensionProblem(werner_state(3, 1.0), 2, SYMMETRIC)
    cases = [
        (NEWTON_UNDECIDED_AT_3, OracleConfig(max_iters=3), UNDECIDED, 3),
        (NEWTON_UNDECIDED_AT_3, None, FEASIBLE, 6),
        (ExtensionProblem(werner_state(2, -0.5), 3, SYMMETRIC), None, INFEASIBLE, 1),
        (ExtensionProblem(werner_state(2, 0.5), 3, SYMMETRIC), None, FEASIBLE, 1),
        (face, None, FEASIBLE, 1),
    ]
    for problem, _, _, _ in cases:
        oracle_feasibility(problem)  # builds and caches the blocks
    counts, eigh_inputs = _counting_factorizations(monkeypatch)
    definite = []
    for problem, cfg, status, steps in cases:
        counts.update(dict.fromkeys(counts, 0))
        eigh_inputs.clear()
        res = oracle_feasibility(problem, cfg)
        assert (res.status, res.iterations) == (status, steps)
        blocks = len(res.block_sides)
        assert counts["eigvalsh"] == blocks
        assert 1 <= counts["cholesky"] <= blocks
        # a dual point at the start when a Cholesky failed, and one per line-search trial
        if counts["dual points"] == 0:
            assert counts["cholesky"] == blocks and (status, steps) == (FEASIBLE, 1)
            definite.append(problem)
        else:
            assert counts["dual points"] >= steps
        mat = _solve_matrix(problem.marginal)
        kernel_tests = sum(a.shape == mat.shape and np.array_equal(a, mat) for a in eigh_inputs)
        if problem is face:
            # one eigh per block at each dual point, plus the marginal's kernel
            # test and the Gram pseudoinverse of the face blocks
            assert kernel_tests == 1 and res.block_sides != _extension_blocks(3, 3, 2, SYMMETRIC).sides
            assert counts["eigh"] == blocks * counts["dual points"] + 2
        else:
            assert res.block_sides == (8, 4)
            assert kernel_tests == 0 and counts["eigh"] == blocks * counts["dual points"]
    # the starts of Werner psi = 0.5 and of the face are positive definite
    assert definite == [cases[3][0], face]


@pytest.mark.parametrize(
    "psi,status,eighs,choleskys",
    # the psi = -0.5 start fails its first block's Cholesky and pays one eigh per block, as before the test
    [(0.5, FEASIBLE, 0, 2), (-0.5, INFEASIBLE, 2, 1)],
    ids=["positive-definite-start", "indefinite-start"],
)
def test_a_positive_definite_start_takes_no_eigensolve(monkeypatch, psi, status, eighs, choleskys):
    # Werner d = 2, k = 3 is full rank on blocks 8 and 4: at psi = 0.5 its start amap^+ rho is positive
    # definite, so it is its own PSD projection, lies on the affine set and stops Feasible at step 1
    problem = ExtensionProblem(werner_state(2, psi), 3, SYMMETRIC)
    oracle_feasibility(problem)  # builds and caches the blocks
    counts, _ = _counting_factorizations(monkeypatch, ("eigh", "cholesky", "svd"))
    res = oracle_feasibility(problem)
    assert (res.status, res.iterations, res.block_sides) == (status, 1, (8, 4))
    assert (counts["eigh"], counts["cholesky"], counts["svd"]) == (eighs, choleskys, 0)


def test_a_positive_definite_start_that_goes_on_solves_its_blocks_then(monkeypatch):
    # a positive definite start stops Feasible at step 1 unless rounding leaves a gap above TOL_FEASIBLE; with
    # the tolerance at 0 the run goes on, and its first eigensolves are those of the start's blocks, as a start
    # formed in full would have taken them; Werner psi = 0.5 extends, so no step may certify otherwise
    monkeypatch.setattr(oracle_mod, "TOL_FEASIBLE", 0.0)
    problem = ExtensionProblem(werner_state(2, 0.5), 3, SYMMETRIC)
    blocks = _solve_blocks(problem)
    w = oracle_mod._matvec(blocks.gpinv, blocks.compress(_solve_matrix(problem.marginal)))
    start = blocks.split(blocks.hermitian(blocks.adjoint(w)))
    counts, eigh_inputs = _counting_factorizations(monkeypatch, ("eigh", "cholesky"))
    res = oracle_feasibility(problem, OracleConfig(max_iters=3))
    assert res.iterations >= 2 and res.status != INFEASIBLE
    assert counts["cholesky"] == len(start) and counts["eigh"] >= len(start)
    assert all(np.array_equal(a, b) for a, b in zip(eigh_inputs, start))


HESSIAN_CASES = [
    (werner_state(2, -0.4), 3),
    (bell_state([0.5, 0.3, 0.2, 0.0]), 2),
    (werner_state(3, 0.1), 2),
    (werner_state(3, 1.0), 2),
    (_local_frame(bell_state([0.5, 0.3, 0.2, 0.0]), np.random.default_rng(69)), 2),
]


def _checked_hessian(blocks, target, w, d):
    """Newton's Hessian at w, checked against central differences of the gradient along d and column by column."""
    parts, _, _ = _dual_point(blocks, w, target)
    assert min(float(np.min(np.abs(lam))) for lam, _ in parts) > 1e-3
    grad = lambda v: blocks.marginal(_dual_point(blocks, v, target)[1])
    eps = 1e-6
    numeric = (grad(w + eps * d) - grad(w - eps * d)) / (2 * eps)
    hess = _newton_hessian(blocks, parts)
    assert np.max(np.abs(hess @ d - numeric)) < 1e-6
    # the closed form is the matrix whose column j is amap J(G_j)
    assert np.max(np.abs(hess - column_hessian(blocks, parts))) < 1e-12
    return hess


@pytest.mark.parametrize("rho,k", HESSIAN_CASES)
def test_newton_hessian_is_the_derivative_of_the_gradient(rho, k):
    # amap J amap^dag d against central differences of amap P+(amap^dag w),
    # at a random Hermitian w where the lift has no zero eigenvalue; on a face
    # w has the side r of the marginal's range
    rng = np.random.default_rng(68 + k)
    blocks = _solve_blocks(ExtensionProblem(rho, k, SYMMETRIC))
    # the rotated Bell state's complex frame gives its face blocks, and amap, complex entries
    assert (np.max(np.abs(np.imag(blocks.amap))) > 1e-3) == bool(np.any(rho.mat.imag))
    r = int(np.sum(np.linalg.eigvalsh(rho.mat) > 1e-12))
    assert blocks.rank == r and blocks.amap.shape[0] == r * r
    w, d = (_random_hermitian(r, rng).ravel() for _ in range(2))
    _checked_hessian(blocks, blocks.compress(rho.mat), w, d)


@pytest.mark.parametrize("rho,k", [case for case in HESSIAN_CASES if not case[0].mat.imag.any()])
def test_newton_hessian_is_real_on_real_marginals(rho, k):
    # a real marginal gives real blocks, a real target and, at a real
    # symmetric w, real eigenvectors: the Hessian is float64.  conj() of a
    # real array is the array itself, so scaling conj(C_b) in place would
    # scale C_b too, and the Hessian would fail both checks
    rng = np.random.default_rng(72 + k)
    blocks = _solve_blocks(ExtensionProblem(rho, k, SYMMETRIC))
    target = blocks.compress(_solve_matrix(rho))
    assert blocks.amap.dtype == target.dtype == np.float64
    w, d = (_random_hermitian(blocks.rank, rng).real.ravel() for _ in range(2))
    assert _checked_hessian(blocks, target, w, d).dtype == np.float64


def test_certificate_bounds_decide_only_what_the_svd_would(monkeypatch):
    # ||W'||_F / sqrt(n) <= ||W'||_2 <= ||W'||_F: the test passes at a trace at or below -TOL_GAP ||W'||_F and
    # fails above -TOL_GAP ||W'||_F / sqrt(n) without an SVD, which decides only between the two.  On seeded
    # Hermitian W' (low = 0, so no shift), marginals mixed from its extreme eigenvectors put the trace just
    # inside and just outside each bound, at ||W'||_2 and in the band's middle
    rng = np.random.default_rng(70)
    real_svd = np.linalg.svd
    svds = []

    def counting(a, *args, **kwargs):
        svds.append(None)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    tol = oracle_mod.TOL_GAP
    outcomes = set()
    for dims in ((2, 2), (2, 3), (3, 3), (4, 4)):
        n = math.prod(dims)
        for _ in range(4):
            w = _random_hermitian(n, rng)
            lam, vecs = np.linalg.eigh(w)
            fro, norm2 = np.linalg.norm(w), float(real_svd(w, compute_uv=False)[0])
            edges = (fro, fro / math.sqrt(n), norm2)
            for t in [e * (1 + rel) for e in edges for rel in (-1e-4, -1e-7, 1e-7, 1e-4)] + [sum(edges[:2]) / 2]:
                # Tr(W' rho) = -TOL_GAP t for rho = p |v_0><v_0| + (1 - p) |v_last><v_last|
                p = (lam[-1] + tol * t) / (lam[-1] - lam[0])
                mix = p * np.outer(vecs[:, 0], vecs[:, 0].conj()) + (1 - p) * np.outer(vecs[:, -1], vecs[:, -1].conj())
                svds.clear()
                witness, trace, certified = oracle_mod._checked_witness(w, 0.0, DensityMatrix(hermitize(mix), dims))
                assert trace == pytest.approx(-tol * t, rel=1e-8)
                plain = trace < 0 and trace <= -tol * float(real_svd(witness, compute_uv=False)[0])
                assert certified is plain, (dims, t / fro)
                assert len(svds) == (-tol * fro < trace <= -tol * fro / math.sqrt(n)), (dims, t / fro)
                outcomes.add((certified, len(svds)))
    assert outcomes == {(True, 0), (True, 1), (False, 1), (False, 0)}


def test_certificate_test_runs_once_per_witness(monkeypatch):
    # the verdict reports the trace and the margin test of the step that found
    # W', so each witness is tested once: at every step Newton does not stop
    # Feasible, and once for the face-reach witness
    calls = []
    real_test = oracle_mod._checked_witness

    def counting(op, low, rho):
        calls.append(None)
        return real_test(op, low, rho)

    monkeypatch.setattr(oracle_mod, "_checked_witness", counting)
    cases = [
        (ExtensionProblem(werner_state(2, -0.5), 3, SYMMETRIC), INFEASIBLE, 1),
        (ExtensionProblem(bell_state([0.8, 0.2, 0, 0]), 2, SYMMETRIC), INFEASIBLE, 1),
        (NEWTON_UNDECIDED_AT_3, FEASIBLE, 5),
    ]
    for problem, status, tests in cases:
        calls.clear()
        res = oracle_feasibility(problem)
        assert res.status == status and len(calls) == tests
        if status == INFEASIBLE:
            assert res.certificate["dual_trace"] == float(np.vdot(res.dual_witness, problem.marginal.mat).real)
            assert res.certificate["certified"] is True


def _counting_dual_points(monkeypatch) -> list:
    """Patch _dual_point to record each call: the start of a run, then each line-search trial."""
    calls = []
    real = oracle_mod._dual_point

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(oracle_mod, "_dual_point", counting)
    return calls


def test_line_search_halves_its_step_when_the_full_step_does_not_descend(monkeypatch):
    # a seeded full-rank marginal, bosonic at k = 3, whose solve backtracks (rare: 3 of 3,960 seeded solves);
    # a run makes one dual point at its start and one per trial, and each step but the last searches a line,
    # so every trial beyond one per search is a halving
    rng = np.random.default_rng(0)
    g = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    gg = g @ g.conj().T
    rho = DensityMatrix(0.7 * gg / np.trace(gg).real + 0.3 * np.eye(9) / 9, (3, 3))
    calls = _counting_dual_points(monkeypatch)
    res = oracle_feasibility(ExtensionProblem(rho, 3, BOSONIC))
    assert (res.status, res.stop_reason) == (INFEASIBLE, "dual-certificate")
    assert res.certificate["certified"] is True
    halvings = len(calls) - res.iterations  # (calls - 1) trials, (iterations - 1) line searches
    assert halvings >= 1


def test_line_search_without_descent_ends_undecided_at_the_point_it_tested(monkeypatch):
    # a negated Hessian turns Newton's direction uphill: every one of the 30 trials fails the Armijo test,
    # and the run stops after its first step with that step's point and gap
    real_hessian = oracle_mod._newton_hessian
    monkeypatch.setattr(oracle_mod, "_newton_hessian", lambda blocks, parts: -real_hessian(blocks, parts))
    calls = _counting_dual_points(monkeypatch)
    res = oracle_feasibility(ExtensionProblem(werner_state(2, -0.2), 3, SYMMETRIC))
    assert (res.status, res.stop_reason, res.iterations) == (UNDECIDED, "max-iters", 1)
    assert len(calls) == 1 + 30
    assert len(res.gap_trace) == 1 and res.residual == res.gap_trace[0][1] > 1e-7
    assert res.dual_witness is None and math.isfinite(res.certificate["min_eig"])


@pytest.mark.parametrize(
    "rho,k",
    [(bell_state([3 / 4, 1 / 12, 1 / 12, 1 / 12]), 2), (werner_state(2, -1 / 3), 3)],
    ids=["bell-boundary-k2", "werner-boundary-k3"],
)
def test_exact_boundary_states_are_never_infeasible(rho, k):
    # both sit exactly on the boundary of the extendable set, where a dual
    # trace can be negative only by rounding; the certificate's margin must
    # refuse it in any local frame, also after more than the default steps
    rng = np.random.default_rng(66)
    for state in [rho] + [_local_frame(rho, rng) for _ in range(4)]:
        problem = ExtensionProblem(state, k, SYMMETRIC)
        assert oracle_feasibility(problem).status != INFEASIBLE
        assert oracle_feasibility(problem, OracleConfig(max_iters=100)).status != INFEASIBLE


def test_oracle_decides_random_states():
    # seeded Ginibre states, 10 per cell: every solve decided, no Feasible
    # against a Violated criterion, every Infeasible checked densely
    rng = np.random.default_rng(67)
    start = time.perf_counter()
    statuses = []
    for dims in ((2, 2), (2, 3)):
        for k in (2, 3):
            for _ in range(10):
                problem = ExtensionProblem(random_density(dims, rng), k, SYMMETRIC)
                res = oracle_feasibility(problem)
                statuses.append(res.status)
                assert res.status in (FEASIBLE, INFEASIBLE), (dims, k, res.stop_reason)
                if res.status == FEASIBLE:
                    assert symmetric_extension_verdict(problem).status != VIOLATED
                    assert res.certificate["marginal_residual"] <= OracleConfig().tol_gap
                else:
                    # d_A d_B^k <= 54, so this includes dense_dual_check
                    assert certificate_holds(res, problem)
    assert time.perf_counter() - start < 2.0
    assert FEASIBLE in statuses and INFEASIBLE in statuses


def test_oracle_degenerate_iterate_regression():
    # the dense full-space solve of this case failed in the eigensolver on a
    # highly degenerate 128 x 128 iterate
    res = oracle_feasibility(ExtensionProblem(werner_state(2, -0.1), 6, SYMMETRIC))
    assert res.status == FEASIBLE
    assert res.certificate["marginal_residual"] <= OracleConfig().tol_gap


# --- recorded digests of whole solves ---------------------------------------------

ORACLE_DIGESTS = Path(__file__).parent / "data" / "oracle_digests.json"
DIGEST_FLOATS = ("residual", "marginal_residual", "min_eig", "dual_trace", "dual_min_eig")


def _digest_problems():
    """(label, problem) for GOLDEN and for seeded states from every stratum of the oracle benchmark workloads."""
    cases = [(f"golden {state} k={k} {flavor}", _golden_problem(state, k, flavor)) for state, k, flavor, _, _ in GOLDEN]
    rng = np.random.Generator(np.random.PCG64(32))

    def werner(d, k, flavor, lo, hi, tag):
        psi = float(rng.uniform(lo, hi))
        cases.append((f"werner d={d} k={k} {flavor} psi={psi!r} [{tag}]", ExtensionProblem(werner_state(d, psi), k, flavor)))

    def bell(p, k, flavor, tag, rotate=False):
        p = np.asarray(p, dtype=float) / np.sum(p)
        rho = _local_frame(bell_state(p), rng) if rotate else bell_state(p)
        cases.append((f"bell{' rotated' if rotate else ''} p={p.tolist()} k={k} {flavor} [{tag}]",
                      ExtensionProblem(rho, k, flavor)))

    def near(p0, concentration=3000.0):
        p0 = np.asarray(p0, dtype=float)
        p = np.zeros(4)
        p[p0 > 0] = rng.dirichlet(p0[p0 > 0] * concentration)
        return p[rng.permutation(4)]

    def violated():
        top = rng.uniform(0.82, 0.9)
        return np.insert(rng.dirichlet(np.full(3, 30.0)) * (1 - top), int(rng.integers(4)), top)

    for d, ks in ((2, range(2, 6)), (3, range(2, 5))):
        for k in ks:
            thr = -(d - 1) / k
            werner(d, k, SYMMETRIC, 0.1, 0.8, "far feasible")
            werner(d, k, SYMMETRIC, thr + 0.05, 0.0, "feasible")
            if thr - 0.1 > -0.95:
                werner(d, k, SYMMETRIC, -0.95, thr - 0.1, "infeasible")
    for k in (2, 3):
        werner(2, k, SYMMETRIC, 0.95, 0.99, "near pure")
    for d, ks in ((2, range(2, 9)), (3, range(2, 5))):
        for k in ks:
            werner(d, k, BOSONIC, -0.95, -1.0 / k - 0.15, "infeasible")
            werner(d, k, BOSONIC, 0.05, 0.9, "feasible")
    for flavor in (SYMMETRIC, BOSONIC):
        for d, ks in ((2, (2, 3, 4)), (3, (2, 3) if flavor == SYMMETRIC else (2, 3, 4))):
            for k in ks:
                for psi in (-1.0, 1.0):
                    cases.append((f"werner d={d} k={k} {flavor} psi={psi} [face]",
                                  ExtensionProblem(werner_state(d, psi), k, flavor)))
        for k in (2, 3, 4):
            bell(rng.dirichlet(np.full(4, 20.0)), k, flavor, "near mixed")
        bell(violated(), 2, flavor, "violated")
        for k in (2, 3):
            top = rng.uniform(0.3, 0.45)
            bell(np.array([top, 1 - top, 0.0, 0.0])[rng.permutation(4)], k, flavor, "rank 2")
            bell(np.eye(4)[int(rng.integers(4))], k, flavor, "pure")
            bell(near([0.4, 0.3, 0.3, 0.0]), k + 1, flavor, "rank 3")
            bell(near([0.35, 0.65, 0.0, 0.0]), k, flavor, "rank 2", rotate=True)
            bell(near([0.34, 0.33, 0.33, 0.0]), k + 1, flavor, "rank 3", rotate=True)
        bell(near([0.6, 0.2, 0.2, 0.0], 20000.0), 3, flavor, "rank 3", rotate=True)
    bell(near([0.70, 0.145, 0.105, 0.05], 10000.0), 3, SYMMETRIC, "near the boundary")
    # within TOL_GAP of the threshold: the default 30 steps run out
    cases.append(("werner d=2 k=3 symmetric psi=-1/3-1e-6 [undecided]",
                  ExtensionProblem(werner_state(2, -1 / 3 - 1e-6), 3, SYMMETRIC)))
    for dims in ((2, 2), (2, 3)):
        for k in (2, 3):
            for flavor in (SYMMETRIC, BOSONIC):
                cases.append((f"ginibre {dims} k={k} {flavor}", ExtensionProblem(random_density(dims, rng), k, flavor)))
    return cases


def _digest_row(label, res):
    row = {"case": label, "status": res.status, "stop_reason": res.stop_reason, "iterations": res.iterations,
           "block_sides": list(res.block_sides), "certified": res.certificate.get("certified"),
           "residual": res.residual}
    row.update((key, res.certificate.get(key)) for key in DIGEST_FLOATS[1:])
    return row


def test_oracle_solves_match_their_recorded_digests():
    # every solve's verdict, stop reason, steps, blocks and certificate test
    # exactly, and its reported floats within 1e-12, as recorded before the
    # per-layout block plans replaced the per-call glue of a solve
    recorded = json.loads(ORACLE_DIGESTS.read_text())
    cases = _digest_problems()
    assert [row["case"] for row in recorded] == [label for label, _ in cases]
    strata = set()
    for (label, problem), want in zip(cases, recorded):
        got = _digest_row(label, oracle_feasibility(problem))
        for key, value in want.items():
            if key in DIGEST_FLOATS and value is not None:
                assert got[key] == pytest.approx(value, rel=0, abs=1e-12), (label, key)
            else:
                assert got[key] == value, (label, key)
        strata.add((got["status"], got["stop_reason"]))
    assert strata == {(FEASIBLE, "feasible-gap"), (INFEASIBLE, "dual-certificate"), (INFEASIBLE, "face-reach"),
                      (UNDECIDED, "max-iters")}


if __name__ == "__main__":
    # records the digests: PYTHONPATH=src python tests/test_oracle.py
    rows = [_digest_row(label, oracle_feasibility(problem)) for label, problem in _digest_problems()]
    ORACLE_DIGESTS.write_text("[\n" + ",\n".join("  " + json.dumps(row) for row in rows) + "\n]\n")
