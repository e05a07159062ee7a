"""Marginal-averaging reduction and the combined consistency pipeline."""

import numpy as np
import pytest

from helpers import random_separable
from symext import (
    BOSONIC,
    INCONCLUSIVE,
    MARGINAL_MISMATCH,
    SYMMETRIC,
    VIOLATED,
    DensityMatrix,
    LayoutError,
    MarginalMismatchError,
    MarginalSet,
    ValidationError,
    a_marginal_spread,
    average_marginals,
    bell_state,
    consistency_verdict,
    maximally_mixed,
    partial_trace,
    pure_state,
    random_density,
    tensor_product,
    werner_pentagon,
    werner_state,
)
from symext.consistency import _consistency_min_pt_eigs
from symext.criteria import _ppt_passes
from symext.families import _a_marginal_spreads
from symext.linalg import _reduced_stack


def test_marginal_set_validation():
    bell = bell_state([1, 0, 0, 0])
    ms = MarginalSet([bell, bell])
    assert ms.k == 2 and ms.dims == (2, 2)
    with pytest.raises(ValidationError):
        MarginalSet([bell])
    with pytest.raises(LayoutError):
        MarginalSet([bell, maximally_mixed([2, 3])])
    with pytest.raises(LayoutError):
        MarginalSet([maximally_mixed([2, 2, 2]), maximally_mixed([2, 2, 2])])


def test_average_marginals():
    rho = bell_state([0.6, 0.2, 0.1, 0.1])
    problem = average_marginals(MarginalSet([rho, rho]))
    assert problem.k == 2
    assert problem.flavor == BOSONIC  # two-qubit pair routes to the hat test
    assert np.max(np.abs(problem.marginal.mat - rho.mat)) < 1e-14

    # the Werner family is closed under averaging the parameter
    problem = average_marginals(MarginalSet([werner_state(2, -0.8), werner_state(2, -0.2)]))
    assert np.max(np.abs(problem.marginal.mat - werner_state(2, -0.5).mat)) < 1e-12

    three = MarginalSet([werner_state(3, -0.3)] * 3)
    problem = average_marginals(three)
    assert problem.k == 3 and problem.flavor == SYMMETRIC


def test_average_marginals_mismatch_raises():
    rho_ab = tensor_product(pure_state([1, 0], (2,)), maximally_mixed([2]))
    rho_ac = tensor_product(pure_state([0, 1], (2,)), maximally_mixed([2]))
    ms = MarginalSet([rho_ab, rho_ac])
    assert a_marginal_spread(ms) > 0.99
    with pytest.raises(MarginalMismatchError):
        average_marginals(ms)


def test_consistency_verdicts():
    bell = bell_state([1, 0, 0, 0])
    v = consistency_verdict(MarginalSet([bell, bell]))
    assert v.status == VIOLATED  # a maximally entangled state cannot be shared
    assert v.criterion == "averaging+hat"

    v = consistency_verdict(MarginalSet([werner_state(2, -0.6), werner_state(2, -0.6)]))
    assert v.status == VIOLATED  # average -0.6 < -1/2
    assert "min_pt_eig" in v.witness

    v = consistency_verdict(MarginalSet([werner_state(2, -0.4), werner_state(2, -0.4)]))
    assert v.status == INCONCLUSIVE


def test_consistency_verdict_mismatch_rule():
    rho_ab = tensor_product(pure_state([1, 0], (2,)), maximally_mixed([2]))
    rho_ac = tensor_product(pure_state([0, 1], (2,)), maximally_mixed([2]))
    v = consistency_verdict(MarginalSet([rho_ab, rho_ac]))
    assert v.status == VIOLATED
    assert v.criterion == MARGINAL_MISMATCH
    assert abs(v.witness["a_marginal_trace_distance"] - 1.0) < 1e-12


def test_consistency_verdict_order_invariant():
    marginals = [werner_state(2, -0.7), werner_state(2, -0.2)]
    forward = consistency_verdict(MarginalSet(marginals))
    backward = consistency_verdict(MarginalSet(marginals[::-1]))
    assert forward.status == backward.status
    assert forward.criterion == backward.criterion
    assert forward.witness["min_pt_eig"] == pytest.approx(backward.witness["min_pt_eig"], abs=1e-14)


def test_consistency_sound_on_true_marginals():
    # marginals extracted from an explicit global state are consistent by
    # construction, so the verdict must never claim violation
    rng = np.random.default_rng(40)
    for _ in range(25):
        global_state = random_density((2, 2, 2), rng)
        rho_ab = partial_trace(global_state, [0, 1])
        rho_ac = partial_trace(global_state, [0, 2])
        v = consistency_verdict(MarginalSet([rho_ab, rho_ac]))
        assert v.status == INCONCLUSIVE
    for _ in range(10):
        global_state = random_density((2, 2, 2, 2), rng)
        marginals = [partial_trace(global_state, [0, i]) for i in (1, 2, 3)]
        v = consistency_verdict(MarginalSet(marginals))
        assert v.status == INCONCLUSIVE


def test_werner_pentagon():
    assert werner_pentagon(-0.5, -0.5)  # boundary
    assert not werner_pentagon(-0.9, -0.3)
    assert werner_pentagon(0.5, 0.5)
    with pytest.raises(ValidationError):
        werner_pentagon(-1.2, 0.0)


def test_pentagon_matches_pipeline_on_coarse_grid():
    psis = np.linspace(-1.0, 1.0, 21)
    for psi1 in psis:
        for psi2 in psis:
            if abs(psi1 + psi2 + 1.0) < 1e-6:
                continue
            v = consistency_verdict(MarginalSet([werner_state(2, float(psi1)), werner_state(2, float(psi2))]))
            assert (v.status == INCONCLUSIVE) == werner_pentagon(float(psi1), float(psi2))


@pytest.mark.parametrize("dims, k", [((2, 2), 2), ((2, 2), 3), ((2, 3), 2), ((3, 2), 3)])
def test_stacked_consistency_matches_the_verdict(dims, k):
    rng = np.random.default_rng(41 + k)
    rows = []
    for i in range(12):
        if i % 3 == 0:  # true marginals of one global state: A marginals agree
            big = random_density((dims[0],) + (dims[1],) * k, rng)
            rows.append([partial_trace(big, [0, j]) for j in range(1, k + 1)])
        else:  # independent states: A marginals disagree, or entangled marginals
            rows.append([random_density(dims, rng) for _ in range(k)])
    if dims == (2, 2):
        rows.append([bell_state([1, 0, 0, 0])] * k)
    # one table of every state, and an (N, k) index array naming each row's marginals in it
    mats = np.array([rho.mat for row in rows for rho in row])
    min_eigs = np.array([rho._min_eig for row in rows for rho in row])
    idx = np.arange(len(mats)).reshape(-1, k)
    spreads = _a_marginal_spreads(_reduced_stack(mats, dims, [0], 1e-10, min_eigs)[0], idx)
    lo = _consistency_min_pt_eigs(mats, dims, idx, spreads)
    passes = _ppt_passes(lo)
    for i, row in enumerate(rows):
        ms = MarginalSet(row)
        assert abs(spreads[i] - a_marginal_spread(ms)) < 1e-15
        verdict = consistency_verdict(ms)
        assert passes[i] == (verdict.status == INCONCLUSIVE)
        assert np.array_equal(lo[i], verdict.witness.get("min_pt_eig", np.nan), equal_nan=True)
    assert passes.any() and not passes.all()
