"""Input census: each public entry point checks the inputs that enter it, by one integer rule, one real rule and
one layout rule.

A first piece of the adversarial census: integer-valued inputs that are not
integers, integers beyond the float range or too long to print, scalars where
a sequence is expected, matrices whose shape does not
fit their layout, states on different layouts, non-finite matrices and
tolerances that are not numbers or lie outside [0, inf) must raise a
``symext.errors`` type with no numpy warning.  So must real parameters that
are not numbers (bools, numeric strings, None, sequences), NaN, or values
outside their range or not finite, and matrices, vectors and weights that are
ragged or not numeric (string, bool or object arrays).  numpy integers and
floats are accepted.  A state file the CLI cannot read as a state, whatever
its bytes, exits 1 with one ``error:`` line.
"""

import json
import warnings

import numpy as np
import pytest
from helpers import state_to_obj

from symext import (
    BOSONIC,
    DensityMatrix,
    ExtensionProblem,
    OracleConfig,
    bell_exact_2ext,
    bell_polytope_condition,
    bell_ssa,
    bell_state,
    MarginalSet,
    bosonic_extension_verdict,
    ckw_check,
    definetti_gap,
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
    symmetric_extension_verdict,
    tilde_state,
    trace_distance,
    trace_norm,
    werner_hat_psi,
    werner_pentagon,
    werner_state,
    werner_tilde_psi,
)
from symext.cli import main

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


_BELL_FILE = json.dumps(state_to_obj(BELL))
_HUGE_ENTRY = state_to_obj(BELL)
_HUGE_ENTRY["matrix"]["re"][0][1] = 10**400

# state files that raised a raw exception from the reader, which check, consistency and definetti --state share:
# (bytes, the error line; {path} stands for the file's path)
STATE_FILES = {
    "not UTF-8": (
        b"\xff\xfe" + _BELL_FILE.encode("utf-16-le"),
        "error: {path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    "an integer past the float range": (
        json.dumps(_HUGE_ENTRY).encode(),
        "error: malformed state object: int too large to convert to float",
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
