"""Bell-diagonal and Werner families, their criteria, and entanglement measures."""

import math

import numpy as np
import pytest

from symext import (
    BELL_VECTORS,
    DensityMatrix,
    LayoutError,
    MarginalMismatchError,
    ValidationError,
    bell_exact_2ext,
    bell_polytope_condition,
    bell_ssa,
    bell_state,
    ckw_check,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    permutation_operator,
    ssa_check,
    symmetric_projector,
    tensor_product,
    von_neumann_entropy,
    werner_exact_threshold,
    werner_state,
    werner_tilde_threshold,
    wootters_concurrence,
)
from symext.families import (
    _YY,
    _a_marginal_spreads,
    _bell_exact_flags,
    _bell_mats,
    _bell_polytope_flags,
    _bell_ssa_flags,
    _check_bell_probs,
    _check_bell_rows,
    _concurrences,
    _require_a_agreement,
    _ssa_flags,
    _werner_mats,
)
from symext.linalg import _entropies, _reduced_stack


def test_bell_vectors_orthonormal():
    gram = BELL_VECTORS.conj().T @ BELL_VECTORS
    assert np.max(np.abs(gram - np.eye(4))) < 1e-15


def test_bell_state_basics():
    phi1 = bell_state([1, 0, 0, 0])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.max(np.abs(phi1.mat - expected)) < 1e-15

    assert np.allclose(bell_state([0.25] * 4).mat, np.eye(4) / 4)

    rho = bell_state([0.4, 0.3, 0.2, 0.1])
    assert np.allclose(partial_trace(rho, [0]).mat, np.eye(2) / 2)
    assert np.allclose(np.linalg.eigvalsh(rho.mat), [0.1, 0.2, 0.3, 0.4])

    with pytest.raises(ValidationError):
        bell_state([0.5, 0.6, 0, -0.1])
    with pytest.raises(ValidationError):
        bell_state([0.5, 0.3, 0.1, 0.2])


def test_bell_polytope_condition():
    assert bell_polytope_condition([0.75, 1 / 12, 1 / 12, 1 / 12])
    assert not bell_polytope_condition([0.8, 0.2, 0, 0])
    assert bell_polytope_condition([0.25] * 4)


def test_bell_exact_2ext():
    assert bell_exact_2ext([0.25] * 4)  # RHS = 0
    assert not bell_exact_2ext([0.75, 0.25, 0, 0])  # RHS = 5/8
    assert bell_exact_2ext([0.75, 1 / 12, 1 / 12, 1 / 12])  # RHS = 1/2 exactly
    # a point outside both regions
    assert not bell_polytope_condition([0.8, 0.1, 0.05, 0.05])
    assert not bell_exact_2ext([0.8, 0.1, 0.05, 0.05])


def test_bell_ssa():
    assert not bell_ssa([1, 0, 0, 0])
    assert bell_ssa([0.5, 0.5, 0, 0])  # H = 1, boundary
    assert bell_ssa([0.25] * 4)


def test_werner_extremes():
    # psi = 1 is the normalized symmetric projector
    sym = symmetric_projector(2, 2)
    assert np.max(np.abs(werner_state(2, 1.0).mat - sym / 3)) < 1e-14
    # psi = -1 at d=2 is the singlet
    singlet = bell_state([0, 0, 0, 1])
    assert np.max(np.abs(werner_state(2, -1.0).mat - singlet.mat)) < 1e-14
    # A marginal is maximally mixed
    for d in (2, 3):
        assert np.allclose(partial_trace(werner_state(d, 0.37), [0]).mat, np.eye(d) / d)
    with pytest.raises(ValidationError):
        werner_state(1, 0.0)
    with pytest.raises(ValidationError):
        werner_state(2, 1.5)


def test_werner_uxu_invariance():
    rng = np.random.default_rng(30)
    for d in (2, 3):
        rho = werner_state(d, -0.6)
        for _ in range(5):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u, _ = np.linalg.qr(g)
            uu = np.kron(u, u)
            assert np.max(np.abs(uu @ rho.mat @ uu.conj().T - rho.mat)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_werner_ppt_iff_nonnegative_parameter(d):
    for psi in np.linspace(-1.0, 1.0, 201):
        lo = np.linalg.eigvalsh(partial_transpose(werner_state(d, float(psi)), 1))[0]
        assert (lo >= -1e-9) == (psi >= 0.0)


def test_werner_thresholds():
    assert werner_tilde_threshold(2, 2) == -1.0
    assert werner_tilde_threshold(2, 4) == -0.5
    assert werner_tilde_threshold(3, 3) == -1.0
    assert werner_exact_threshold(2, 2) == -0.5
    assert abs(werner_exact_threshold(2, 3) + 1 / 3) < 1e-15
    assert werner_exact_threshold(3, 2) == -1.0


def test_ssa_check():
    mm = maximally_mixed([2, 2])
    assert ssa_check(mm, mm)
    bell = bell_state([1, 0, 0, 0])
    assert not ssa_check(bell, bell)  # 0 + 0 < 1 + 1


def test_ssa_check_werner_pair_against_closed_form():
    # Werner(2, psi) is Bell-diagonal with p = ((1+psi)/6 x3, (1-psi)/2), so
    # the SSA flag reduces to 2 H(p) >= 2; freeze a few points from that form.
    def shannon(psi):
        p = np.array([(1 + psi) / 6] * 3 + [(1 - psi) / 2])
        nz = p[p > 0]
        return float(-np.sum(nz * np.log2(nz)))

    for psi in (-0.9, -0.6, -0.2, 0.5):
        expected = 2 * shannon(psi) >= 2.0
        assert ssa_check(werner_state(2, psi), werner_state(2, psi)) == expected
    assert not ssa_check(werner_state(2, -0.9), werner_state(2, -0.9))


def test_ssa_check_of_two_werner_states_runs_three_eigensolves(monkeypatch):
    pair = werner_state(2, -0.6), werner_state(2, 0.3)
    # rho_B = I / 2 has one bit of entropy
    expected = sum(float(-np.sum(p * np.log2(p))) for p in (np.linalg.eigvalsh(rho.mat) for rho in pair)) >= 2.0
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append(a.shape) or eigvalsh(a, *args))
    assert ssa_check(*pair) == expected
    # the A-marginal trace distance and S(rho_B) of each state: S(rho) is read off the validation
    # spectrum, and rho_A is proven valid from its smallest eigenvalue
    assert calls == [(1, 2, 2)] * 3


def test_ssa_check_at_zero_tolerance_solves_each_reduced_state_once(monkeypatch):
    rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2), tol=0)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append(a.shape) or eigvalsh(a, *args))
    # 2 H(0.4, 0.3, 0.2, 0.1) >= 2 H(0.6, 0.4)
    assert ssa_check(rho, rho)
    # at tol = 0 no reduced state is proven valid: each rho_A and rho_B is validated, rho_B's entropy
    # is read off the spectrum its validation solved, and the A marginals' trace distance takes one more
    assert calls == [(1, 2, 2)] * 5


def test_ssa_check_marginal_mismatch():
    from symext import pure_state

    rho_ab = tensor_product(pure_state([1, 0], (2,)), maximally_mixed([2]))
    rho_ac = tensor_product(pure_state([0, 1], (2,)), maximally_mixed([2]))
    with pytest.raises(MarginalMismatchError, match="trace distance"):
        ssa_check(rho_ab, rho_ac)
    try:
        ssa_check(rho_ab, rho_ac)
    except MarginalMismatchError as err:
        assert abs(err.trace_distance - 1.0) < 1e-12


def test_wootters_concurrence():
    assert abs(wootters_concurrence(bell_state([1, 0, 0, 0])) - 1.0) < 1e-12
    assert wootters_concurrence(maximally_mixed([2, 2])) < 1e-12
    for psi in np.linspace(-1.0, 1.0, 21):
        c = wootters_concurrence(werner_state(2, float(psi)))
        assert abs(c - max(0.0, -float(psi))) < 1e-9
    with pytest.raises(LayoutError):
        wootters_concurrence(maximally_mixed([3, 3]))


def test_ckw_check():
    w8 = werner_state(2, -0.8)
    assert not ckw_check(w8, w8, 1.0)  # 0.64 + 0.64 > 1
    w7 = werner_state(2, -0.7)
    assert ckw_check(w7, w7, 1.0)  # 0.98 <= 1
    assert ckw_check(werner_state(2, 0.3), werner_state(2, 0.1), 1.0)
    with pytest.raises(ValidationError):
        ckw_check(w7, w7, 1.5)


def _bell_grid(n):
    ticks = [i / (n - 1) for i in range(n)]
    return [(a, b, c, max(1.0 - a - b - c, 0.0)) for a in ticks for b in ticks for c in ticks if a + b + c <= 1 + 1e-9]


def test_stacked_bell_flags_match_the_single_formulas():
    rng = np.random.default_rng(21)
    p = _check_bell_rows(np.vstack([rng.dirichlet(np.ones(4), 300), _bell_grid(9)]))
    poly, exact, ssa = _bell_polytope_flags(p), _bell_exact_flags(p), _bell_ssa_flags(p)
    mats = _bell_mats(p)
    for i, row in enumerate(p):
        assert poly[i] == (row.max() <= 0.75)
        assert exact[i] == (np.sum(row**2) - 4 * math.sqrt(float(np.prod(row))) <= 0.5)
        nz = row[row > 1e-12]
        assert ssa[i] == (-np.sum(nz * np.log2(nz)) >= 1.0 - 1e-12)
        assert np.array_equal(mats[i], (BELL_VECTORS * row) @ BELL_VECTORS.conj().T)
        assert np.array_equal(bell_state(row).mat, DensityMatrix(mats[i], (2, 2)).mat)


def test_bell_row_check_reports_the_first_failing_row():
    rows = np.array([[0.25] * 4, [0.5, 0.5, 0.0, 0.0], [0.5, 0.3, 0.1, 0.2], [0.5, 0.6, 0.0, -0.1]])
    for bad in (2, 3):
        stack = np.vstack([rows[:2], rows[bad:]])
        with pytest.raises(ValidationError) as err:
            _check_bell_rows(stack)
        with pytest.raises(ValidationError) as alone:
            _check_bell_probs(rows[bad])
        assert str(err.value) == str(alone.value)


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_werner_states_concurrence_and_ssa_match_single(d):
    psis = np.linspace(-1.0, 1.0, 41)
    mats = _werner_mats(d, psis)
    for psi, mat in zip(psis, mats):
        swap = permutation_operator(d, 2, (1, 0))
        eye = np.eye(d * d)
        ref = (1 + psi) / 2 * (eye + swap) / 2 / (d * (d + 1) / 2) + (1 - psi) / 2 * (eye - swap) / 2 / (d * (d - 1) / 2)
        assert np.max(np.abs(mat - ref)) < 1e-15
        assert np.array_equal(werner_state(d, float(psi)).mat, DensityMatrix(mat, (d, d)).mat)
    with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
        _werner_mats(d, np.array([0.0, 1.5]))
    if d == 2:
        states = [werner_state(2, float(psi)) for psi in psis] + [bell_state(p) for p in _bell_grid(5)]
        stack = np.array([rho.mat for rho in states])
        for rho, got in zip(states, _concurrences(stack)):
            m = rho.mat @ _YY @ rho.mat.conj() @ _YY
            lams = np.sort(np.sqrt(np.clip(np.linalg.eigvals(m).real, 0.0, None)))[::-1]
            assert abs(got - max(0.0, lams[0] - lams[1] - lams[2] - lams[3])) < 1e-12
            assert wootters_concurrence(rho) == got
        # the kernel on a table of the states, paired with the same table reversed
        min_eigs = np.array([rho._min_eig for rho in states])
        idx = np.column_stack([np.arange(len(states)), np.arange(len(states))[::-1]])
        _require_a_agreement(_a_marginal_spreads(_reduced_stack(stack, (2, 2), [0], 1e-10, min_eigs)[0], idx))
        s_b = _entropies(_reduced_stack(stack, (2, 2), [1], 1e-10, min_eigs)[0])
        flags = _ssa_flags(_entropies(stack), s_b, idx)
        for rho_ab, rho_ac, got in zip(states, states[::-1], flags):
            s_b, s_c = (von_neumann_entropy(partial_trace(rho, [1])) for rho in (rho_ab, rho_ac))
            want = von_neumann_entropy(rho_ab) + von_neumann_entropy(rho_ac) >= s_b + s_c - 1e-9
            assert got == want == ssa_check(rho_ab, rho_ac)
