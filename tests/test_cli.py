"""Command-line interface: formats, determinism, and the exit-code contract."""

import argparse
import functools
import hashlib
import io
import itertools
import json
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
from helpers import Admitted, admitted, dump_state, reference_bell_points, state_to_obj

import symext.cli as cli
import symext.criteria as criteria
from symext import DensityMatrix, bell_state, maximally_mixed, random_density, werner_state
from symext.errors import ResourceLimitError
from symext.cli import load_state, main, state_from_obj

SWEEP_DIGESTS = json.loads((Path(__file__).parent / "data" / "sweep_digests.json").read_text())


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    dump_state(bell_state([1, 0, 0, 0]), str(path))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    dump_state(maximally_mixed([2, 2]), str(path))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_state_file_round_trip_is_bit_identical():
    rng = np.random.default_rng(60)
    rho = random_density((2, 3), rng)
    obj = json.loads(json.dumps(state_to_obj(rho)))
    back = state_from_obj(obj)
    assert back.dims == rho.dims
    assert np.array_equal(back.mat, rho.mat)


def test_check_violated(capsys, bell_file):
    code, out, _ = _run(capsys, ["check", bell_file, "--k", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Violated"
    assert doc["criterion"] == "hat-ppt"
    assert doc["derived_state_min_pt_eig"] == pytest.approx(-0.125, abs=1e-12)


def test_check_inconclusive(capsys, mixed_file):
    code, out, _ = _run(capsys, ["check", mixed_file, "--k", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Inconclusive"


def test_check_bosonic_flavor(capsys, bell_file):
    code, out, _ = _run(capsys, ["check", bell_file, "--k", "1", "--flavor", "bosonic"])
    assert code == 0
    assert json.loads(out)["status"] == "Inconclusive"  # k=1 hat state is always separable


def test_check_invalid_state_exits_1(capsys, tmp_path, bell_file):
    obj = json.loads(Path(bell_file).read_text())
    obj["matrix"]["re"][0][0] = 0.4  # trace now 0.9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = _run(capsys, ["check", str(bad), "--k", "2"])
    assert code == 1
    assert "trace deviates by 1.0e-01" in err
    assert out == ""
    # but a looser --tol accepts it
    code, out, err = _run(capsys, ["check", str(bad), "--k", "2", "--tol", "0.2"])
    assert code == 0


def test_check_refuses_huge_finite_entries_in_one_line(capsys, tmp_path, bell_file):
    obj = json.loads(Path(bell_file).read_text())
    obj["matrix"]["re"][0][3] = obj["matrix"]["re"][3][0] = 1e308
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["check", str(bad), "--k", "2"])
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: minimal eigenvalue -1.000e+308 is below the PSD tolerance -1e-09"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-inf"])
def test_tol_flags_refuse_non_finite_and_negative_values(capsys, tmp_path, bell_file, tol):
    obj = json.loads(Path(bell_file).read_text())
    obj["matrix"]["re"][0][0] = -0.5  # eigenvalue below zero: invalid at any sane tolerance
    obj["matrix"]["re"][1][1] = 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    for argv in (
        ["check", str(bad), "--k", "2", f"--tol={tol}"],
        ["check", bell_file, "--k", "2", f"--tol={tol}"],
        ["consistency", bell_file, bell_file, f"--tol={tol}"],
        ["definetti", "--state", bell_file, "--k-max", "2", f"--tol={tol}"],
        ["definetti", "--k-max", "2", f"--tol={tol}"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1, argv
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: tolerance must be finite and >= 0"), argv


def test_check_malformed_json_exits_1(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["check", str(bad), "--k", "2"])
    assert code == 1
    assert "JSON" in err


def test_usage_error_exits_1(capsys, bell_file):
    code, _, err = _run(capsys, ["check", bell_file])
    assert code == 1
    code, _, err = _run(capsys, ["volume", "--which", "nowhere", "--samples", "10000", "--seed", "1"])
    assert code == 1


def test_consistency_command(capsys, tmp_path, bell_file):
    code, out, _ = _run(capsys, ["consistency", bell_file, bell_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Violated"
    assert doc["rule"] == "averaging+hat"

    w = tmp_path / "w.json"
    dump_state(werner_state(2, -0.4), str(w))
    code, out, _ = _run(capsys, ["consistency", str(w), str(w)])
    assert json.loads(out)["status"] == "Inconclusive"


def test_consistency_mismatch_rule(capsys, tmp_path):
    from symext import pure_state, tensor_product

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    dump_state(tensor_product(pure_state([1, 0], (2,)), maximally_mixed([2])), str(a))
    dump_state(tensor_product(pure_state([0, 1], (2,)), maximally_mixed([2])), str(b))
    code, out, _ = _run(capsys, ["consistency", str(a), str(b)])
    assert code == 0
    doc = json.loads(out)
    assert doc["rule"] == "marginal-mismatch"
    assert doc["witness"]["a_marginal_trace_distance"] == pytest.approx(1.0, abs=1e-12)


def test_bell_sweep_output(capsys):
    code, out, _ = _run(capsys, ["bell-sweep", "--grid", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p1,p2,p3,polytope,exact,ssa,hat_ppt"
    rows = [line.split(",") for line in lines[1:]]
    # 5 ticks per axis, keep p1+p2+p3 <= 1: C(4+3,3) = 35 points
    assert len(rows) == 35
    table = {(r[0], r[1], r[2]): r[3:] for r in rows}
    assert table[("0.25", "0.25", "0.25")] == ["1", "1", "1", "1"]
    assert table[("1", "0", "0")] == ["0", "0", "0", "0"]
    # polytope column equals the hat PPT column everywhere
    assert all(r[3] == r[6] for r in rows)
    # byte-stable across runs
    code, out2, _ = _run(capsys, ["bell-sweep", "--grid", "5"])
    assert out2 == out


def test_bell_sweep_criteria_subset(capsys):
    code, out, _ = _run(capsys, ["bell-sweep", "--grid", "3", "--criteria", "polytope,ppt"])
    lines = out.strip().splitlines()
    assert lines[0] == "p1,p2,p3,polytope,hat_ppt"
    code, _, err = _run(capsys, ["bell-sweep", "--grid", "3", "--criteria", "bogus"])
    assert code == 1


def test_werner_sweep_transitions(capsys):
    code, out, _ = _run(capsys, ["werner-sweep", "--d", "2", "--k", "2", "--psi-step", "0.25"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "psi,tilde_ppt,hat_ppt,exact_flag"
    rows = {r.split(",")[0]: r.split(",")[1:] for r in lines[1:]}
    assert rows["-1"] == ["1", "0", "0"]  # tilde threshold -d/k = -1: nothing detected
    assert rows["-0.75"][1] == "0"  # hat still negative below -1/2
    assert rows["-0.5"] == ["1", "1", "1"]  # hat map hits zero exactly at -1/2
    assert rows["0.5"] == ["1", "1", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["werner-sweep", "--k", "0"],
        ["werner-sweep", "--k", "-1"],
        ["werner-sweep", "--d", "0"],
        ["werner-sweep", "--d", "1"],
        ["bell-sweep", "--k", "0"],
    ],
    ids=" ".join,
)
def test_sweep_rejects_bad_k_and_d_before_output(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_numeric_flags_declare_their_domains():
    # every int and float flag is parsed by a type that checks its domain; check --k is the
    # one exception, since ExtensionProblem checks the extension count
    (sub,) = [action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    plain = [
        (command, action.option_strings[0])
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.type in (int, float)
    ]
    assert plain == [("check", "--k")]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bell-sweep", "--grid", "1"], "--grid must be at least 2, got 1"),
        (["bell-sweep", "--k", "0"], "--k must be at least 1, got 0"),
        (["bell-sweep", "--k", "2.5"], "argument --k: invalid int value: '2.5'"),
        (["bell-sweep", "--grid", "300", "--criteria", "bogus"], "unknown criterion 'bogus'; choose from"),
        (["werner-sweep", "--d", "1"], "--d must be at least 2, got 1"),
        (["werner-sweep", "--k", "-1"], "--k must be at least 1, got -1"),
        (["werner-sweep", "--psi-step", "0"], "--psi-step must lie in (0, 1], got 0.0"),
        (["werner-sweep", "--psi-step", "1.5"], "--psi-step must lie in (0, 1], got 1.5"),
        (["werner-sweep", "--psi-step", "nan"], "--psi-step must lie in (0, 1], got nan"),
        (["werner-sweep", "--psi-step", "abc"], "argument --psi-step: invalid float value: 'abc'"),
        (["volume", "--which", "exact", "--samples", "9999", "--seed", "1"], "--samples must be at least 10000"),
        (["volume", "--which", "exact", "--samples", "10000", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["consistency-sweep", "--grid", "1"], "--grid must be at least 2, got 1"),
        (["consistency-sweep", "--family", "bogus"], "argument --family: invalid choice: 'bogus'"),
        (["definetti", "--k-max", "0"], "--k-max must be at least 1, got 0"),
        (["definetti", "--d", "0"], "--d must be at least 1, got 0"),
        # --d is checked also when --state makes it unused, as --seed and --tol are
        (["definetti", "--d", "0", "--state", "STATE"], "--d must be at least 1, got 0"),
        # a domain error wins over the row guard
        (["definetti", "--k-max", "3000000", "--d", "0"], "--d must be at least 1, got 0"),
        (["definetti", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["definetti", "--tol", "inf"], "tolerance must be finite and >= 0, got inf"),
        (["check", "STATE", "--k", "2", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
        (["consistency", "STATE", "STATE", "--tol=-1"], "tolerance must be finite and >= 0, got -1.0"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_flag_domains_are_checked_while_parsing(capsys, bell_file, argv, message):
    argv = [bell_file if arg == "STATE" else arg for arg in argv]
    with pytest.raises(cli.CliInputError) as err:
        cli.build_parser().parse_args(argv)
    assert str(err.value).startswith(message)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + message)


@pytest.mark.parametrize("case", SWEEP_DIGESTS, ids=lambda case: " ".join(case["argv"]))
def test_sweep_output_matches_recorded_digest(capsys, case):
    # digests of the per-state implementation's output; bell-sweep --grid 21 spans seven chunks
    code, out, err = _run(capsys, case["argv"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


VERDICT_DIGESTS = json.loads((Path(__file__).parent / "data" / "verdict_digests.json").read_text())


def _verdict_states():
    """Seeded states named as the ``{name}`` placeholders of the verdict digests."""
    from symext import partial_trace, pure_state, tensor_product

    states = {}
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rng = np.random.default_rng(dims[0] * 10 + dims[1])
        tag = f"{dims[0]}x{dims[1]}"
        states[f"mixed-{tag}"] = random_density(dims, rng)
        side = dims[0] * dims[1]
        v = rng.standard_normal(side) + 1j * rng.standard_normal(side)
        pure = states[f"pure-{tag}"] = DensityMatrix(np.outer(v, v.conj()) / np.vdot(v, v).real, dims)
        states[f"noisy-{tag}"] = DensityMatrix(0.7 * pure.mat + 0.3 * np.eye(side) / side, dims)
    states["werner-boundary"] = werner_state(2, -2 / 3)  # tilde parameter 0 at k=3
    states["bell-boundary"] = bell_state([0.75, 1 / 12, 1 / 12, 1 / 12])  # hat state on the PPT edge at k=2
    states["bell"] = bell_state([1, 0, 0, 0])
    states["up-mixed"] = tensor_product(pure_state([1, 0], (2,)), maximally_mixed([2]))
    states["down-mixed"] = tensor_product(pure_state([0, 1], (2,)), maximally_mixed([2]))
    for psi in (-0.25, -0.5, -0.75, 0.3):
        states[f"werner{psi:g}"] = werner_state(2, psi)
    rng = np.random.default_rng(77)
    big = random_density((2, 2, 2, 2), rng)
    for j in (1, 2, 3):
        states[f"qubits3-{j}"] = partial_trace(big, [0, j])
    big = random_density((2, 3, 3), rng)
    for j in (1, 2):
        states[f"qutrits2-{j}"] = partial_trace(big, [0, j])
    return states


def _refused_state_objects():
    """State files that check refuses, named as ``{name}`` placeholders of the verdict digests."""
    bell = state_to_obj(bell_state([1, 0, 0, 0]))
    objs = {name: json.loads(json.dumps(bell)) for name in ("non-hermitian", "trace-off", "non-finite")}
    objs["non-hermitian"]["matrix"]["re"][0][1] = 0.1
    objs["trace-off"]["matrix"]["re"][0][0] = 0.4  # trace 0.9
    objs["non-finite"]["matrix"]["im"][1][2] = float("nan")
    # admitted, lambda_min -0.9e-9, but d_B lambda_min is below -5 tol: rho_A is validated and refused
    past = DensityMatrix(np.diag([-0.9e-9, -0.9e-9, 0.5 + 0.9e-9, 0.5 + 0.9e-9]), (2, 2))
    objs["past-the-proof"] = state_to_obj(past)
    return objs


@pytest.fixture(scope="module")
def verdict_state_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verdict-states")
    paths = {}
    for name, rho in _verdict_states().items():
        paths[name] = str(tmp / f"{name}.json")
        dump_state(rho, paths[name])
    for name, obj in _refused_state_objects().items():
        paths[name] = str(tmp / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj) + "\n")
    return paths


@pytest.mark.parametrize("case", VERDICT_DIGESTS, ids=lambda case: " ".join(case["argv"]))
def test_verdict_output_matches_recorded_digest(capsys, verdict_state_paths, case):
    # digests of check, consistency and volume stdout recorded before the verdicts shared one kernel;
    # rows with a "code" also record the exact stderr: refusals, and check at tolerances where rho_A
    # is validated rather than proven
    argv = [verdict_state_paths[arg[1:-1]] if arg.startswith("{") else arg for arg in case["argv"]]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (case.get("code", 0), case.get("stderr", ""))
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize(
    "argv, side",
    [
        (["bell-sweep", "--grid", "21"], 4),
        (["consistency-sweep", "--grid", "25"], 4),
        (["werner-sweep", "--d", "3", "--k", "4", "--psi-step", "0.02"], 9),
        (["werner-sweep", "--d", "9", "--k", "2", "--psi-step", "0.5"], 81),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_sweeps_eigensolve_bounded_chunks_and_build_no_state_per_row(capsys, monkeypatch, argv, side):
    sizes, built = [], []
    for name in ("eigvalsh", "eigvals"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _f=original: sizes.append(a.size) or _f(a, *args))
    init = DensityMatrix.__init__
    monkeypatch.setattr(DensityMatrix, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    code, out, _ = _run(capsys, argv)
    rows = len(out.splitlines()) - 1
    assert code == 0 and rows > 0
    assert built == []
    # a chunk holds at most _CHUNK_ENTRIES matrix entries, or one state when a single one is larger
    assert max(sizes) <= max(cli._CHUNK_ENTRIES, side * side)
    if side * side <= cli._CHUNK_ENTRIES:
        assert len(sizes) < rows


def _count_eigensolves(monkeypatch):
    """Record (shape, dtype) of every np.linalg.eigvalsh call."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append((a.shape, a.dtype)) or eigvalsh(a, *args))
    return calls


def test_werner_sweep_chunk_runs_three_eigensolves(capsys, monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    code, out, _ = _run(capsys, ["werner-sweep", "--d", "2", "--k", "3", "--psi-step", "0.02"])
    assert code == 0 and len(out.splitlines()) == 102 <= cli._chunk_size(4) + 1
    # the input stack, then one partial transpose for each of the tilde and hat columns, all in float64:
    # rho_A is proven valid from the input's spectra, and the derived states are valid by construction
    assert calls == [((101, 4, 4), np.float64)] * 3


@pytest.mark.parametrize("d, chunks", [(2, 1), (3, 5)])
def test_werner_sweep_chunk_reduces_once(capsys, monkeypatch, d, chunks):
    import symext.linalg as linalg

    calls = _count_eigensolves(monkeypatch)
    traced = []
    ptrace = linalg._ptrace_mat
    monkeypatch.setattr(linalg, "_ptrace_mat", lambda mat, *args: traced.append(mat.shape) or ptrace(mat, *args))
    code, out, _ = _run(capsys, ["werner-sweep", "--d", str(d), "--k", "4", "--psi-step", "0.01"])
    assert code == 0 and len(out.splitlines()) == 202
    # one A marginal per chunk, read by both the tilde and the hat column, and three eigensolves:
    # the input stack and one partial transpose per column
    assert len(traced) == chunks and all(shape[1:] == (d * d, d * d) for shape in traced)
    assert len(calls) == 3 * chunks


def test_werner_sweep_oracle_rows_are_not_validated_again(capsys, monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    inside = []
    oracle = cli.oracle_feasibility

    def counted(problem):
        before = len(calls)
        result = oracle(problem)
        inside.append(len(calls) - before)
        return result

    monkeypatch.setattr(cli, "oracle_feasibility", counted)
    code, out, _ = _run(capsys, ["werner-sweep", "--d", "2", "--k", "3", "--with-oracle", "--psi-step", "0.1"])
    assert code == 0 and len(out.splitlines()) == 22 and len(inside) == 21
    # the chunk's three float64 eigensolves and the oracle's own: each row's state holds the spectrum
    # its chunk was validated with, so no row solves it again
    assert calls[:3] == [((21, 4, 4), np.float64)] * 3
    assert len(calls) == 3 + sum(inside)


def test_bell_sweep_chunk_runs_two_eigensolves(capsys, monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    code, out, _ = _run(capsys, ["bell-sweep", "--grid", "9", "--k", "3"])
    assert code == 0 and len(out.splitlines()) == 166 <= cli._chunk_size(4) + 1
    # the input stack and the hat states' partial transpose, both in float64
    assert calls == [((165, 4, 4), np.float64)] * 2


def test_consistency_sweep_eigensolves_each_state_once(capsys, monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    code, out, _ = _run(capsys, ["consistency-sweep", "--grid", "25"])
    assert code == 0 and len(out.splitlines()) == 626
    # per state: validation and S(rho_B); per chunk of 256 pairs: the A-marginal trace distances,
    # read by the pentagon and SSA, and the averaged derived states' partial transpose
    assert len(calls) <= 8
    assert calls[:2] == [((25, 4, 4), np.float64), ((25, 2, 2), np.float64)]
    assert all(dtype == np.float64 for _, dtype in calls)


def test_check_runs_two_eigensolves(capsys, monkeypatch, tmp_path):
    path = tmp_path / "state.json"
    dump_state(random_density((3, 3), np.random.default_rng(31)), str(path))
    calls = _count_eigensolves(monkeypatch)
    code, out, _ = _run(capsys, ["check", str(path), "--k", "3"])
    assert code == 0 and json.loads(out)["status"] in ("Violated", "Inconclusive")
    # the validating solve of rho and the derived state's partial transpose: rho_A is proven valid
    assert [shape[-2:] for shape, _ in calls] == [(9, 9), (9, 9)]
    # at --tol 0 the proof has no room, so rho_A is validated with one more, 3 x 3, solve; dyadic
    # weights make the trace exactly one
    dump_state(DensityMatrix(np.diag([2.0**-j for j in range(1, 9)] + [2.0**-8]), (3, 3)), str(path))
    calls.clear()
    assert _run(capsys, ["check", str(path), "--k", "3", "--tol", "0"])[0] == 0
    assert [shape[-2:] for shape, _ in calls] == [(9, 9), (3, 3), (9, 9)]


def test_reduced_state_past_the_proof_is_refused_by_the_cli(capsys, tmp_path):
    # rho is admitted (lambda_min -0.9e-9) but rho_A is -1.8e-9 on |0>: d_B lambda_min(rho) is below
    # -5 tol, so rho_A is validated and refused with the message it always had
    path = tmp_path / "past.json"
    dump_state(DensityMatrix(np.diag([-0.9e-9, -0.9e-9, 0.5 + 0.9e-9, 0.5 + 0.9e-9]), (2, 2)), str(path))
    message = "error: minimal eigenvalue -1.800e-09 is below the PSD tolerance -1e-09\n"
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    for argv in (["check", str(path), "--k", "3"], ["check", str(path), "--k", "2", "--flavor", "bosonic"],
                 ["consistency", str(path), str(path)], ["definetti", "--state", str(path), "--out", str(out)]):
        assert _run(capsys, argv) == (1, "", message)
    assert out.read_bytes() == b"kept\n"  # definetti refuses rho_A before it writes the header


class _CountingSink(io.StringIO):
    """Stdout replacement that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["bell-sweep", "--grid", "12"], 364),  # two chunks
        (["bell-sweep", "--grid", "12", "--criteria", "ppt,ssa"], 364),
        (["consistency-sweep", "--grid", "17"], 289),  # two chunks
        (["werner-sweep", "--d", "3", "--psi-step", "0.02"], 101),  # two chunks of 50 and one of 1
        (["werner-sweep", "--k", "3", "--psi-step", "0.5", "--with-oracle"], 5),
        (["definetti", "--k-max", "7"], 7),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "--out"])
def test_csv_commands_write_the_header_and_each_row_with_one_write(monkeypatch, tmp_path, argv, rows, to_file):
    # a reader of the stream (the benchmark's row timer, ``| head``) sees each row once it is made
    if to_file:
        writes, path, write = [], tmp_path / "out.csv", cli._OutFile.write
        monkeypatch.setattr(cli._OutFile, "write", lambda self, s: writes.append(s) or write(self, s))
        assert main(argv + ["--out", str(path)]) == 0
        text = path.read_text()
    else:
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0
        writes, text = sink.writes, sink.getvalue()
    assert len(writes) == rows + 1
    assert writes == text.splitlines(keepends=True)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_flag_lines_write_every_flag_pattern(m):
    patterns = list(itertools.product([False, True], repeat=m))
    patterns = [patterns[i] for i in np.random.default_rng(m).permutation(len(patterns))]
    prefixes = [f"row{i}" for i in range(len(patterns))]
    flags = [np.array([bits[c] for bits in patterns]) for c in range(m)]
    want = [prefix + "".join(f",{int(b)}" for b in bits) + "\n" for prefix, bits in zip(prefixes, patterns)]
    assert cli._flag_lines(prefixes, flags) == want


def test_flag_lines_of_an_empty_chunk():
    assert cli._flag_lines([], [np.zeros(0, dtype=bool)] * 3) == []


@pytest.mark.parametrize("n", [2, 3, 21, 60])
def test_bell_points_match_the_scalar_triple_loop_bit_for_bit(n):
    chunks = list(cli._bell_points(n))
    sizes = [len(labels) for labels, _ in chunks]
    assert sizes == [len(p) for _, p in chunks]
    assert all(size == cli._chunk_size(4) for size in sizes[:-1]) and 0 < sizes[-1] <= cli._chunk_size(4)
    reference = reference_bell_points(n)
    assert [label for labels, _ in chunks for label in labels] == [label for label, _ in reference]
    p = np.concatenate([p for _, p in chunks])
    assert p.dtype == np.float64 and p.tobytes() == np.array([w for _, w in reference]).tobytes()


@pytest.mark.parametrize("n", [2, 3, 25, 101, 201, 1001])
@pytest.mark.parametrize("size", [1, 7, 256])
def test_linspace_chunks_reproduce_linspace(n, size):
    pieces = list(cli._linspace_chunks(n, size))
    assert all(len(piece) <= size for piece in pieces)
    assert np.array_equal(np.concatenate(pieces), np.linspace(-1.0, 1.0, n))


@pytest.mark.parametrize(
    "argv",
    [
        ["werner-sweep", "--d", "18"],
        ["werner-sweep", "--d", "40", "--k", "3"],
        ["werner-sweep", "--psi-step", "1e-15"],
        ["werner-sweep", "--psi-step", "9.9e-7", "--with-oracle"],
        ["werner-sweep", "--d", "2", "--k", "8", "--with-oracle"],
        ["werner-sweep", "--d", "2", "--k", "1000000000", "--with-oracle"],
        # the oracle's Gram matrix and Hessian are d^4 x d^4
        ["werner-sweep", "--d", "16", "--k", "1", "--with-oracle"],
        ["werner-sweep", "--d", "5", "--k", "2", "--with-oracle"],
    ],
    ids=" ".join,
)
def test_werner_sweep_work_guards_refuse_before_output(capsys, monkeypatch, argv):
    def unreachable(*args):
        raise AssertionError("the grid was generated")

    monkeypatch.setattr(cli, "_linspace_chunks", unreachable)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = _run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource limit:")


def test_werner_sweep_work_guards_admit_their_limits(capsys, monkeypatch):
    code, out, _ = _run(capsys, ["werner-sweep", "--d", "16", "--k", "2", "--psi-step", "1"])
    assert code == 0
    assert out.splitlines()[1:] == ["-1,1,0,1", "0,1,1,1", "1,1,1,1"]
    monkeypatch.setattr(cli, "_werner_rows", lambda d, k, n, with_oracle: iter([f"{n}\n"]))
    code, out, _ = _run(capsys, ["werner-sweep", "--psi-step", "1e-6"])
    assert code == 0
    assert out.splitlines()[1:] == ["2000001"]


def test_werner_sweep_guard_is_the_row_count_rule(capsys, monkeypatch):
    # a step admitted iff its grid has at most 2,000,001 rows, as for the other sweeps
    monkeypatch.setattr(cli, "_werner_rows", lambda d, k, n, with_oracle: iter([f"{n}\n"]))
    code, out, _ = _run(capsys, ["werner-sweep", "--psi-step", "9.999998e-7"])
    assert code == 0 and out.splitlines()[1:] == ["2000001"]
    for step, rows in (("9.99999e-7", "2000003"), ("1e-7", "20000001"), ("5e-324", "inf")):
        code, out, err = _run(capsys, ["werner-sweep", "--psi-step", step])
        assert code == 2 and out == ""
        assert err == f"resource limit: --psi-step {float(step)} gives {rows} rows, above the sweep limit 2000001\n"


@pytest.mark.parametrize("d, rows", [(16, 341), (8, 21845), (4, 1398101)])
def test_werner_sweep_work_rule_admits_its_largest_grid(capsys, monkeypatch, d, rows):
    # a row costs three eigensolves of side d^2: rows * 3 * d^6 <= 2^34
    monkeypatch.setattr(cli, "_werner_rows", lambda d, k, n, with_oracle: iter([f"{n}\n"]))
    code, out, _ = _run(capsys, ["werner-sweep", "--d", str(d), "--psi-step", repr(2 / (rows - 1))])
    assert (code, out.splitlines()[1:]) == (0, [str(rows)])
    code, out, err = _run(capsys, ["werner-sweep", "--d", str(d), "--psi-step", repr(2 / rows)])
    assert (code, out) == (2, "")
    assert err.startswith(f"resource limit: --d {d} with --psi-step {2 / rows!r} needs 2^34.0 operations")


def test_definetti_side_is_bounded_by_its_three_eigensolves(capsys, monkeypatch, tmp_path):
    # the state's product and validation and the trace norm: 3 * 1764^3 operations are admitted, 3 * 1849^3
    # are not; a draw past the guard raises Admitted
    no_draws = SimpleNamespace(standard_normal=admitted)
    monkeypatch.setattr(cli, "random_density", lambda dims, rng: random_density(dims, no_draws))
    with pytest.raises(Admitted):
        main(["definetti", "--d", "42"])
    path = tmp_path / "out.csv"
    path.write_text("kept\n")
    code, out, err = _run(capsys, ["definetti", "--d", "43", "--out", str(path)])
    assert (code, out) == (2, "") and err.startswith("resource limit: --d 43 needs 2^34.1 operations")
    assert path.read_text() == "kept\n"


def test_state_file_side_is_bounded_by_its_validating_eigensolve():
    # a file's side s costs s^3 for the eigensolve that validates it, estimated before the complex matrix is
    # built: side 2581 is refused, as for pure_state; zero-stride views stand for its decoded parts
    zeros = np.broadcast_to(0.0, (2581, 2581))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as err:
            state_from_obj({"dims": [2581], "matrix": {"re": zeros, "im": zeros}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "state file needs 2^34.0 operations and 2^26.7 bytes, above the budget of 2^34 operations and 2^28 bytes"
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "STATE", "--k", str(10**400)],
        ["bell-sweep", "--k", str(10**400)],
        ["werner-sweep", "--k", str(10**400)],
        ["definetti", "--k-max", str(10**400)],
        ["bell-sweep", "--grid", str(10**1500)],
        ["consistency-sweep", "--grid", str(10**1500)],
        ["volume", "--which", "exact", "--samples", str(10**1500), "--seed", "1"],
    ],
    ids=lambda argv: " ".join(f"<{len(a)} digits>" if len(a) > 100 else a for a in argv),
)
def test_integer_flags_beyond_the_float_range_are_refused_before_output(capsys, tmp_path, bell_file, argv):
    argv = [bell_file if arg == "STATE" else arg for arg in argv]
    path = tmp_path / "out.csv"
    path.write_text("kept\n")
    for extra in ([], ["--out", str(path)]) if argv[0] in ("bell-sweep", "werner-sweep", "definetti") else ([],):
        code, out, err = _run(capsys, argv + extra)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and len(lines[0]) < 100, lines
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bell-sweep", "--grid", "228"],
        ["bell-sweep", "--grid", "10000"],
        ["consistency-sweep", "--grid", "1415"],
        ["consistency-sweep", "--grid", "4000000"],
        ["definetti", "--d", "43"],
        ["definetti", "--d", "100", "--k-max", "1"],
        ["definetti", "--k-max", "2000002"],
        ["definetti", "--k-max", "1000000000"],
        ["volume", "--which", "exact", "--samples", "1000000001", "--seed", "1"],
        ["volume", "--which", "exact", "--samples", "10000000000000", "--seed", "1"],
    ],
    ids=" ".join,
)
def test_row_and_side_guards_refuse_before_output(capsys, monkeypatch, argv):
    def unreachable(*args):
        raise AssertionError("a state or grid was built or a sample drawn")

    for name in ("_bell_points", "_linspace_chunks", "definetti_gap", "_volume_membership"):
        monkeypatch.setattr(cli, name, unreachable)
    # random_density refuses a side before it draws: with no generator, a draw would raise AttributeError
    monkeypatch.setattr(cli, "random_density", lambda dims, rng: random_density(dims, None))
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource limit:")


def test_row_and_side_guards_admit_their_limits(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_bell_rows", lambda n, k, flags: iter([f"{n}\n"]))
    code, out, _ = _run(capsys, ["bell-sweep", "--grid", "227"])
    assert code == 0
    assert out.splitlines()[1:] == ["227"]
    monkeypatch.setattr(cli, "_consistency_rows", lambda n: iter([f"{n}\n"]))
    code, out, _ = _run(capsys, ["consistency-sweep", "--grid", "1414"])
    assert code == 0
    assert out.splitlines()[1:] == ["1414"]
    code, out, _ = _run(capsys, ["definetti", "--d", "16", "--k-max", "1"])
    assert code == 0
    assert out.splitlines()[0] == "k,gap,bound" and len(out.splitlines()) == 2
    monkeypatch.setattr(cli, "_definetti_rows", lambda rho, k_max: iter([f"{k_max}\n"]))
    code, out, _ = _run(capsys, ["definetti", "--k-max", "2000001"])
    assert code == 0
    assert out.splitlines()[1:] == ["2000001"]


@pytest.mark.parametrize(
    "argv",
    [
        ["definetti", "--d", "16", "--k-max", "8"],
        ["definetti", "--d", "16", "--k-max", "2000001"],
        ["definetti", "--d", "3", "--k-max", "175584"],
    ],
    ids=" ".join,
)
def test_definetti_side_and_row_caps_bound_a_table_alone(capsys, monkeypatch, argv):
    # a table costs one trace norm whatever its length, so no rows x side work guard refuses it
    monkeypatch.setattr(cli, "_definetti_rows", lambda rho, k_max: iter([f"{k_max}\n"]))
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out.splitlines()[1:] == [argv[-1]]


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "--which", "simplex", "--samples", "10000", "--seed", "-1"],
        ["definetti", "--d", "2", "--k-max", "3", "--seed", "-5"],
    ],
    ids=" ".join,
)
def test_negative_seed_exits_1(capsys, tmp_path, argv):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --seed must be at least 0")
    # definetti checks --seed also when --state makes it unused, as it does --tol
    if argv[0] == "definetti":
        path = tmp_path / "bell.json"
        dump_state(bell_state([0.7, 0.1, 0.1, 0.1]), path)
        assert _run(capsys, argv + ["--state", str(path)])[0] == 1


def test_volume_sample_cap_admits_its_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_SAMPLES", 20_000)
    code, out, _ = _run(capsys, ["volume", "--which", "simplex", "--samples", "20000", "--seed", "3"])
    assert code == 0 and json.loads(out)["samples"] == 20_000
    code, out, err = _run(capsys, ["volume", "--which", "simplex", "--samples", "20001", "--seed", "3"])
    assert (code, out) == (2, "") and err.startswith("resource limit:")


def test_definetti_streams_its_rows(capsys, monkeypatch):
    # each row is written before the next is formatted: a failure while
    # formatting row 3 leaves the header and the first two rows on stdout
    real_fmt = cli._fmt
    calls = []

    def fmt_failing_at_row_3(x):
        calls.append(x)
        if len(calls) == 5:  # two values a row
            raise cli.ValidationError("stop at k = 3")
        return real_fmt(x)

    monkeypatch.setattr(cli, "_fmt", fmt_failing_at_row_3)
    code, out, err = _run(capsys, ["definetti", "--d", "2", "--k-max", "5"])
    assert code == 1 and "stop at k = 3" in err
    assert [line.split(",")[0] for line in out.splitlines()] == ["k", "1", "2"]


def test_definetti_table_takes_one_trace_norm(capsys, monkeypatch):
    real_trace_norm = criteria.trace_norm
    calls = []

    def counting_trace_norm(m, *args):
        calls.append(m.shape)
        return real_trace_norm(m, *args)

    monkeypatch.setattr(criteria, "trace_norm", counting_trace_norm)
    code, out, _ = _run(capsys, ["definetti", "--k-max", "1000"])
    assert code == 0 and len(out.splitlines()) == 1001
    assert calls == [(4, 4)]


def test_werner_sweep_with_oracle(capsys):
    code, out, _ = _run(capsys, ["werner-sweep", "--d", "2", "--k", "2", "--psi-step", "0.5", "--with-oracle"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith(",oracle_status")
    rows = {r.split(",")[0]: r.split(",")[-1] for r in lines[1:]}
    assert rows["-1"] == "Infeasible"
    assert rows["0"] == "Feasible"


def test_werner_sweep_resource_guard_exits_2(capsys):
    code, _, err = _run(
        capsys, ["werner-sweep", "--d", "4", "--k", "4", "--psi-step", "0.5", "--with-oracle"]
    )
    assert code == 2
    assert "limit" in err


def test_volume_deterministic(capsys):
    argv = ["volume", "--which", "polytope", "--samples", "100000", "--seed", "7"]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    code, out2, _ = _run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert abs(doc["volume"] - 0.15625) < 5 * doc["stderr"]

    code, out, _ = _run(capsys, ["volume", "--which", "simplex", "--samples", "100000", "--seed", "7"])
    assert abs(json.loads(out)["volume"] - 1 / 6) < 0.005

    code, _, err = _run(capsys, ["volume", "--which", "exact", "--samples", "100", "--seed", "7"])
    assert code == 1  # below the minimum sample count


def test_consistency_sweep(capsys):
    code, out, _ = _run(capsys, ["consistency-sweep", "--grid", "9"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "psi1,psi2,pentagon,ckw,ssa"
    assert len(lines) == 1 + 81
    table = {tuple(r.split(",")[:2]): r.split(",")[2:] for r in lines[1:]}
    assert table[("-0.5", "-0.5")][0] == "1"  # pentagon boundary passes
    assert table[("-0.75", "-0.75")][0] == "0"  # sum -1.5 < -1
    assert table[("-0.75", "-0.75")][1] == "0"  # CKW: 2 * 0.5625 > 1
    assert table[("-0.75", "0")][1] == "1"  # CKW passes: 0.5625 <= 1
    code, out2, _ = _run(capsys, ["consistency-sweep", "--grid", "9"])
    assert out2 == out


def test_definetti_command(capsys, tmp_path, bell_file):
    code, out, _ = _run(capsys, ["definetti", "--d", "2", "--k-max", "4", "--state", bell_file])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,gap,bound"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    k2 = rows[1]
    assert float(k2[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(k2[2]) == pytest.approx(4 / 3, abs=1e-9)
    for row in rows:
        assert float(row[1]) <= float(row[2]) + 1e-12
    bounds = [float(r[2]) for r in rows]
    assert bounds == sorted(bounds, reverse=True)  # bound shrinks with k
    # random-state mode is seeded and deterministic
    code, out1, _ = _run(capsys, ["definetti", "--d", "3", "--k-max", "3", "--seed", "5"])
    code, out2, _ = _run(capsys, ["definetti", "--d", "3", "--k-max", "3", "--seed", "5"])
    assert out1 == out2


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = _run(capsys, ["bell-sweep", "--grid", "3", "--out", str(out_path)])
    assert code == 0
    assert out == ""
    content = out_path.read_text()
    assert content.startswith("p1,p2,p3,")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bell-sweep", "--grid", "300"], 2),
        (["bell-sweep", "--grid", "3", "--criteria", "bogus"], 1),
        (["werner-sweep", "--d", "2", "--k", "8", "--with-oracle"], 2),
        (["werner-sweep", "--d", "16", "--k", "1", "--with-oracle"], 2),
        (["werner-sweep", "--d", "5", "--k", "2", "--with-oracle"], 2),
        (["werner-sweep", "--d", "1"], 1),
        (["consistency-sweep", "--grid", "1415"], 2),
        (["definetti", "--k-max", "0"], 1),
        (["definetti", "--k-max", "2", "--tol", "nan"], 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_refused_command_leaves_out_file_alone(capsys, tmp_path, argv, code):
    # --out is opened at the first write, after every guard and input check
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"keep\r\n")
    new = tmp_path / "new.csv"
    for path in (keep, new):
        got, out, err = _run(capsys, argv + ["--out", str(path)])
        assert (got, out, len(err.splitlines())) == (code, "", 1)
    assert keep.read_bytes() == b"keep\r\n"
    assert not new.exists()


@pytest.mark.parametrize(
    "where",
    [
        "missing-dir",
        "directory",
        pytest.param("/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    ],
)
def test_unwritable_out_path_exits_1(capsys, tmp_path, where):
    # /dev/full opens, then fails with ENOSPC when the rows are flushed
    path = {"missing-dir": str(tmp_path / "missing" / "x.csv"), "directory": str(tmp_path)}.get(where, where)
    code, out, err = _run(capsys, ["bell-sweep", "--grid", "3", "--out", path])
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {path}: "), err


def test_main_builds_its_parser_once(capsys, monkeypatch, bell_file):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    codes = [
        _run(capsys, argv)[0]
        for argv in (
            ["check", bell_file, "--k", "2"],
            ["bell-sweep", "--grid", "3"],
            ["check", bell_file],
            ["consistency", bell_file, bell_file],
        )
    ]
    assert codes == [0, 0, 1, 0]
    commands = ("check", "consistency", "bell-sweep", "werner-sweep", "volume", "consistency-sweep", "definetti")
    assert built == ["symext"] + [f"symext {name}" for name in commands]


def test_calls_on_the_shared_parser_share_no_state(capsys, tmp_path, bell_file):
    check = ["check", bell_file, "--k", "2"]
    _, first, _ = _run(capsys, check)
    # a check after a sweep to --out writes to stdout, and leaves the file as it was
    sweep = tmp_path / "sweep.csv"
    assert _run(capsys, ["bell-sweep", "--grid", "3", "--out", str(sweep)])[:2] == (0, "")
    written = sweep.read_bytes()
    assert _run(capsys, check) == (0, first, "")
    assert sweep.read_bytes() == written
    # a call after a usage error, a command error or a validation error reads as a first call
    for failing in (
        ["check", bell_file, "--k", "two"],
        ["check", bell_file, "--flavor", "bogus", "--k", "2"],
        ["bell-sweep", "--grid", "3", "--criteria", "bogus"],
        ["check", bell_file, "--k", "2", "--tol", "nan"],
    ):
        assert _run(capsys, failing)[:2] == (1, "")
        assert _run(capsys, check) == (0, first, "")
    # --flavor and --tol fall back to their defaults when a later call omits them
    assert json.loads(_run(capsys, check + ["--flavor", "bosonic"])[1])["flavor"] == "bosonic"
    assert json.loads(_run(capsys, check)[1])["flavor"] == "symmetric"
    obj = json.loads(Path(bell_file).read_text())
    obj["matrix"]["re"][0][0] = 0.4  # trace 0.9: valid only at the looser tolerance
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert _run(capsys, ["check", str(bad), "--k", "2", "--tol", "0.2"])[0] == 0
    assert _run(capsys, ["check", str(bad), "--k", "2"])[0] == 1


def test_broken_pipe_leaves_descriptors_of_a_fileless_stdout_alone(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, s):
            raise BrokenPipeError(32, "Broken pipe")

    class NoDescriptors:
        def __getattr__(self, name):
            raise AssertionError(f"os.{name} was called")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(cli, "os", NoDescriptors())
    assert main(["bell-sweep", "--grid", "3"]) == cli.EXIT_PIPE


def test_reader_closing_stdout_early_ends_quietly():
    # `symext definetti ... | head -1`: no BrokenPipeError traceback, and the documented exit code
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "symext.cli", "definetti", "--d", "2", "--k-max", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"k,gap,bound\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stderr.close()
    assert err == b""


def test_load_state_validates(tmp_path):
    from symext import LayoutError

    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"dims": [2], "matrix": {"re": [[1.0]], "im": [[0.0]]}}))
    with pytest.raises(LayoutError):
        load_state(str(path))


@pytest.mark.parametrize("dims", [[2.9, 2.9], [2.0, 2.0], "22", [True, 4], ["2", "2"]], ids=repr)
def test_check_refuses_dims_that_are_not_integers(capsys, tmp_path, bell_file, dims):
    # each used to be truncated by int() and run as (2, 2), or (1, 4), with exit 0
    obj = json.loads(Path(bell_file).read_text())
    obj["dims"] = dims
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = _run(capsys, ["check", str(bad), "--k", "2"])
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: factor dimension must be an integer >= 1, got "), err


def test_density_matrix_accepts_numpy_integer_dims():
    rho = DensityMatrix(np.eye(4) / 4, np.array([2, 2]))
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
