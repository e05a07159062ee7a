"""Input census: each public entry point checks the inputs that enter it, by one integer rule and one layout rule.

A first piece of the adversarial census: integer-valued inputs that are not
integers, matrices whose shape does not fit their layout, non-finite
matrices and tolerances outside [0, inf) must raise a ``symext.errors`` type
with no numpy warning.  numpy integers are accepted.
"""

import warnings

import numpy as np
import pytest

from symext import (
    DensityMatrix,
    bell_state,
    hermitian_eigs,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    permutation_operator,
    ppt_test,
    project_invariant_marginal,
    project_marginal_affine,
    project_permutation_invariant,
    project_psd,
    random_density,
    trace_norm,
)

NOT_INTEGERS = [2.0, 0.9, 1.5, True, "1", None, np.float64(1.0)]

BELL = bell_state([0.7, 0.1, 0.1, 0.1])
TARGET = maximally_mixed([2, 2])

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
    "hermitian_eigs tol": (lambda t: hermitian_eigs(np.eye(2), t), [-1e-10, np.nan, np.inf], np.float32(0)),
    "trace_norm tol": (lambda t: trace_norm(np.eye(2), t), [-1e-10, np.nan, np.inf], np.float32(0)),
    "project_psd matrix": (
        project_psd,
        [np.ones((2, 3)), np.ones(4), np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), np.diag([1.0, -np.inf])],
        np.diag([1.0, -1.0]),
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
