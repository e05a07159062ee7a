"""Seeded inputs, operations and reference checks for the three workloads.

A workload is a fixed list of operations (one round) built from the seed.
The timed loop runs the round again and again; every operation returns its
raw output, and ``Op.check`` compares that output with a reference computed
before timing, so no checking cost lands in the timed phase.

References are independent of the code path they check: plain-numpy
derived states for ``check``, closed-form family conditions for the sweeps,
and the criteria, the Werner threshold, separability and the exact
two-qubit 2-extendability formula for oracle verdicts.  A point whose
reference quantity lies within ``BAND`` of its threshold is left out of the
comparison, because both answers are allowed there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import symext.cli as cli_mod
import symext.oracle as oracle_mod
from symext import (
    BOSONIC,
    FEASIBLE,
    INFEASIBLE,
    SYMMETRIC,
    VIOLATED,
    DensityMatrix,
    ExtensionProblem,
    OracleConfig,
    bell_state,
    bosonic_extension_verdict,
    symmetric_extension_verdict,
    werner_state,
)

BAND = 1e-9
PPT_TOL = 1e-9  # the criteria's documented violation threshold
TOL_GAP = OracleConfig().tol_gap
EIG_AGREEMENT = 1e-8

BELL_GRID = 21  # ticks i/20, so max p = 3/4 occurs and falls in the band
CONSISTENCY_GRID = 25
WERNER_STEP = 0.02
CHECKS_PER_LAYOUT = 50


@dataclass
class Checked:
    """What one operation did, judged against its reference."""

    ops: int
    failed: int
    latencies: list[float]
    fingerprint: object
    status: str | None = None
    iterations: int = 0
    failures: list[str] = field(default_factory=list)


def _error_text(raw) -> str | None:
    if isinstance(raw, BaseException):
        return f"{type(raw).__name__}: {raw}"
    return None


def _cli_error(raw) -> str | None:
    """Why a CLI call failed outright: an escaped exception or a non-zero exit code."""
    err = _error_text(raw)
    if err is None and raw[0] != 0:
        err = f"exit code {raw[0]}"
    return err


# ---------------------------------------------------------------------------
# criteria-sweep: CLI commands run in-process


class _TimedSink(io.StringIO):
    """Stdout replacement that stamps each write; sweeps write one row per call."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s):
        self.stamps.append(time.perf_counter())
        return super().write(s)


def _run_cli(argv):
    sink = _TimedSink()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli_mod.main(argv)
    except Exception as err:  # a raw exception escaping the CLI is a failure, not a crash
        return err
    return code, sink.getvalue(), [start] + sink.stamps


@dataclass
class SweepOp:
    """One CSV sweep; every data row is one operation."""

    label: str
    argv: list[str]
    expected: list[tuple[str, ...]]  # reference values per row, None where in the band
    columns: tuple[int, ...]  # CSV columns compared with ``expected``

    def run(self):
        return _run_cli(self.argv)

    def check(self, raw, t0, t1) -> Checked:
        n = len(self.expected)
        err = _cli_error(raw)
        if err is not None:
            return Checked(n, n, [(t1 - t0) / n] * n, ("error", err), failures=[f"{self.label}: {err}"])
        _, text, stamps = raw
        lines = text.splitlines()[1:]
        failures = []
        if len(lines) != n or len(stamps) != n + 2:
            failures.append(f"{self.label}: {len(lines)} rows in {len(stamps) - 1} writes, expected {n}")
            latencies = [(t1 - t0) / n] * n
        else:
            # row i ends at stamps[i + 2]; the first row also carries parsing and the header
            latencies = [stamps[2] - stamps[0]] + [stamps[i + 2] - stamps[i + 1] for i in range(1, n)]
        for i, (line, want) in enumerate(zip(lines, self.expected)):
            cells = line.split(",")
            got = tuple(cells[c] if c < len(cells) else None for c in self.columns)
            if any(w is not None and w != g for w, g in zip(want, got)):
                failures.append(f"{self.label}: row {i + 1} {line!r}, reference {want}")
        failed = min(n, len(failures) + abs(len(lines) - n))
        digest = hashlib.sha256(text.encode()).hexdigest()
        return Checked(n, failed, latencies, digest, failures=failures)


def _flag(ok: bool) -> str:
    return str(int(ok))


def _bell_sweep_op() -> SweepOp:
    n = BELL_GRID
    ticks = [i / (n - 1) for i in range(n)]
    expected = []
    for p1 in ticks:
        for p2 in ticks:
            for p3 in ticks:
                p4 = 1.0 - p1 - p2 - p3
                if p4 < -1e-9:
                    continue
                top = max(p1, p2, p3, max(p4, 0.0))
                # hat-state PPT for Bell-diagonal states at k = 2: max p <= 3/4
                expected.append((None if abs(top - 0.75) <= BAND else _flag(top <= 0.75),))
    argv = ["bell-sweep", "--grid", str(n), "--k", "2", "--criteria", "polytope,exact,ssa,ppt"]
    return SweepOp(f"bell-sweep --grid {n}", argv, expected, (6,))


def _consistency_sweep_op() -> SweepOp:
    psis = np.linspace(-1.0, 1.0, CONSISTENCY_GRID)
    expected = []
    for a in psis:
        for b in psis:
            s = float(a + b)
            # Werner-pair pentagon: consistent marginals need psi1 + psi2 >= -1
            expected.append((None if abs(s + 1.0) <= BAND else _flag(s >= -1.0),))
    argv = ["consistency-sweep", "--family", "werner", "--grid", str(CONSISTENCY_GRID)]
    return SweepOp(f"consistency-sweep --grid {CONSISTENCY_GRID}", argv, expected, (2,))


def _werner_sweep_op(d: int, k: int) -> SweepOp:
    n = int(round(2.0 / WERNER_STEP)) + 1
    expected = []
    for psi in np.linspace(-1.0, 1.0, n):
        psi = float(psi)
        row = []
        # tilde-state PPT holds iff psi >= -d/k, hat-state PPT iff psi >= -1/k
        for thr in (-d / k, -1.0 / k):
            row.append(None if abs(psi - thr) <= BAND else _flag(psi >= thr))
        expected.append(tuple(row))
    argv = ["werner-sweep", "--d", str(d), "--k", str(k), "--psi-step", str(WERNER_STEP)]
    return SweepOp(f"werner-sweep --d {d} --k {k}", argv, expected, (1, 2))


def _reference_min_pt_eig(mat: np.ndarray, dims, k: int, flavor: str) -> float:
    """Minimal partial-transpose eigenvalue of the derived state, from the paper's formulas."""
    d_a, d_b = dims
    t = mat.reshape(d_a, d_b, d_a, d_b)
    rho_a = np.einsum("ijkj->ik", t)
    lifted = np.kron(rho_a, np.eye(d_b))
    # a two-qubit 2-symmetric extension implies a 2-bosonic one, so that case uses the hat state
    if flavor == BOSONIC or (tuple(dims) == (2, 2) and k == 2):
        derived = (lifted + k * mat) / (d_b + k)
    else:
        derived = (d_b * lifted + k * mat) / (d_b**2 + k)
    pt = derived.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


@dataclass
class CheckOp:
    """One ``symext check`` call on a state file written by the benchmark."""

    label: str
    argv: list[str]
    ref_eig: float

    def run(self):
        return _run_cli(self.argv)

    def check(self, raw, t0, t1) -> Checked:
        err = _cli_error(raw)
        if err is not None:
            return Checked(1, 1, [t1 - t0], ("error", err), failures=[f"{self.label}: {err}"])
        verdict = json.loads(raw[1])
        status, eig = verdict["status"], verdict["derived_state_min_pt_eig"]
        failures = []
        if abs(self.ref_eig + PPT_TOL) > BAND:
            want = VIOLATED if self.ref_eig < -PPT_TOL else "Inconclusive"
            if status != want:
                failures.append(f"{self.label}: {status}, reference {want} (min eig {self.ref_eig:.3e})")
        if abs(eig - self.ref_eig) > EIG_AGREEMENT:
            failures.append(f"{self.label}: min eig {eig:.12e}, reference {self.ref_eig:.12e}")
        return Checked(1, int(bool(failures)), [t1 - t0], status, status=status, failures=failures)


def _random_state(dims, rng) -> np.ndarray:
    """Mixture of a random pure state and a random full-rank state; entangled or not."""
    side = dims[0] * dims[1]
    v = rng.standard_normal(side) + 1j * rng.standard_normal(side)
    pure = np.outer(v, v.conj()) / np.vdot(v, v).real
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    mixed = g @ g.conj().T
    mixed /= np.trace(mixed).real
    w = rng.uniform(0.2, 0.95)
    mat = w * pure + (1 - w) * mixed
    mat = (mat + mat.conj().T) / 2
    return mat / np.trace(mat).real


def _check_ops(rng, workdir: Path) -> list[CheckOp]:
    ops = []
    for dims in ((2, 2), (2, 3), (3, 3)):
        for i in range(CHECKS_PER_LAYOUT):
            mat = _random_state(dims, rng)
            k = int(rng.integers(2, 11))
            flavor = SYMMETRIC if rng.random() < 0.5 else BOSONIC
            path = workdir / f"state-{dims[0]}x{dims[1]}-{i}.json"
            obj = {"dims": list(dims), "matrix": {"re": mat.real.tolist(), "im": mat.imag.tolist()}}
            path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
            argv = ["check", str(path), "--k", str(k), "--flavor", flavor]
            label = f"check {dims[0]}x{dims[1]} #{i} k={k} {flavor}"
            ops.append(CheckOp(label, argv, _reference_min_pt_eig(mat, dims, k, flavor)))
    return ops


def _criteria_ops(rng, workdir: Path) -> list:
    ops = [_bell_sweep_op(), _consistency_sweep_op()]
    for d, count in ((2, 3), (3, 2)):
        for k in sorted(rng.choice(np.arange(2, 11), size=count, replace=False)):
            ops.append(_werner_sweep_op(d, int(k)))
    checks = _check_ops(rng, workdir)
    order = rng.permutation(len(checks))
    return ops + [checks[i] for i in order]


# ---------------------------------------------------------------------------
# Oracle workloads: one oracle_feasibility call per operation


@dataclass
class SolveOp:
    label: str
    problem: ExtensionProblem
    forbidden: dict[str, str]  # status -> the reference that rules it out

    def run(self):
        try:
            return oracle_mod.oracle_feasibility(self.problem)
        except Exception as err:  # a raw exception escaping the oracle is a failure, not a crash
            return err

    def check(self, raw, t0, t1) -> Checked:
        err = _error_text(raw)
        if err is not None:
            return Checked(1, 1, [t1 - t0], ("error", err), failures=[f"{self.label}: {err}"])
        failures = []
        if raw.status in self.forbidden:
            failures.append(f"{self.label}: {raw.status} contradicts {self.forbidden[raw.status]}")
        if raw.status == FEASIBLE and raw.certificate["marginal_residual"] > TOL_GAP:
            failures.append(f"{self.label}: Feasible with marginal residual {raw.certificate['marginal_residual']:.3e}")
        fingerprint = (raw.status, raw.iterations)
        return Checked(1, int(bool(failures)), [t1 - t0], fingerprint, raw.status, raw.iterations, failures)


def _bell_s(p) -> float:
    p = np.asarray(p, dtype=float)
    return float(np.sum(p**2) - 4 * math.sqrt(max(float(np.prod(p)), 0.0)))


def _solve(label: str, rho: DensityMatrix, k: int, flavor: str, *, werner=None, bell=None) -> SolveOp:
    """Build one oracle operation and the statuses its references rule out.

    ``werner`` is (d, psi) for a Werner state, ``bell`` the Bell weights of a
    Bell-diagonal state (possibly rotated by local unitaries, which preserve
    extendability).
    """
    problem = ExtensionProblem(rho, k, flavor)
    forbidden: dict[str, str] = {}
    verdict = (symmetric_extension_verdict if flavor == SYMMETRIC else bosonic_extension_verdict)(problem)
    if verdict.status == VIOLATED and abs(verdict.witness["min_pt_eig"] + PPT_TOL) > BAND:
        forbidden[FEASIBLE] = f"the {verdict.criterion} criterion (Violated)"
    if werner is not None:
        d, psi = werner
        if flavor == SYMMETRIC:
            thr = -(d - 1) / k
            if psi < thr - BAND:
                forbidden[FEASIBLE] = f"the exact threshold psi >= {thr:.4f}"
            elif psi > thr + BAND:
                forbidden[INFEASIBLE] = f"the exact threshold psi >= {thr:.4f}"
        if psi > BAND:
            forbidden[INFEASIBLE] = "separability (psi >= 0)"
    if bell is not None:
        if k == 2:
            s = _bell_s(bell)
            if s > 0.5 + BAND:
                forbidden[FEASIBLE] = "exact 2-extendability (sum p^2 - 4 sqrt(prod p) <= 1/2)"
            elif s < 0.5 - BAND:
                forbidden[INFEASIBLE] = "exact 2-extendability (sum p^2 - 4 sqrt(prod p) <= 1/2)"
        if max(bell) < 0.5 - BAND:
            forbidden[INFEASIBLE] = "separability (max p <= 1/2)"
    return SolveOp(label, problem, forbidden)


def _haar_unitary(d: int, rng) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated_bell(p, rng) -> DensityMatrix:
    """Bell-diagonal state in a random local frame: same spectrum and extendability."""
    u = np.kron(_haar_unitary(2, rng), _haar_unitary(2, rng))
    mat = u @ bell_state(p).mat @ u.conj().T
    return DensityMatrix((mat + mat.conj().T) / 2, (2, 2))


def _werner_case(rng, d, k, flavor, lo, hi, tag) -> SolveOp:
    psi = float(rng.uniform(lo, hi))
    return _solve(f"werner d={d} k={k} {flavor} psi={psi:.6f} [{tag}]", werner_state(d, psi), k, flavor, werner=(d, psi))


def _bell_case(rng, p, k, flavor, tag, rotate=False) -> SolveOp:
    p = np.asarray(p, dtype=float)
    p = p / p.sum()
    rho = _rotated_bell(p, rng) if rotate else bell_state(p)
    frame = " rotated" if rotate else ""
    label = f"bell{frame} p={np.round(p, 6).tolist()} k={k} {flavor} [{tag}]"
    return _solve(label, rho, k, flavor, bell=p)


def _near(rng, p0, concentration=3000.0):
    """Bell weights near ``p0``, with the large weight on a random Bell vector."""
    p0 = np.asarray(p0, dtype=float)
    p = np.zeros(4)
    support = p0 > 0  # zero weights stay zero, so the rank is kept
    p[support] = rng.dirichlet(p0[support] * concentration)
    return p[rng.permutation(4)]


def _violated_bell(rng, lo, hi):
    top = rng.uniform(lo, hi)
    rest = rng.dirichlet(np.full(3, 30.0)) * (1 - top)
    return np.insert(rest, int(rng.integers(4)), top)


# Strata keep each round's cost and verdict mix the same for every seed: the
# seed moves inputs inside narrow windows where iteration counts are flat.
# The counts put a plateau of like solves around the median and around the
# 90th percentile, with at least ten solves above the latter.
def _oracle_symmetric_ops(rng) -> list[SolveOp]:
    sym = SYMMETRIC
    ops = []

    def werner(n, d, k, lo, hi, tag):
        ops.extend(_werner_case(rng, d, k, sym, lo, hi, tag) for _ in range(n))

    # cheap: one iteration, far inside the feasible region
    werner(8, 2, 2, 0.1, 0.8, "far feasible")
    werner(8, 2, 3, 0.1, 0.8, "far feasible")
    werner(4, 2, 4, 0.15, 0.75, "far feasible")
    werner(2, 2, 5, 0.3, 0.7, "far feasible")
    werner(6, 3, 2, -0.2, 0.6, "far feasible")
    werner(2, 3, 3, 0.0, 0.6, "far feasible")
    for k in (2, 3, 4):
        ops += [_bell_case(rng, rng.dirichlet(np.full(4, 20.0)), k, sym, "near mixed") for _ in range(4)]
    werner(6, 2, 3, -0.2, -0.05, "feasible")
    # the median plateau: d=2, k=2 infeasible solves stop after about 60 iterations
    werner(24, 2, 2, -0.95, -0.6, "infeasible")
    werner(4, 2, 2, -0.4, -0.3, "feasible")
    werner(3, 2, 2, 0.95, 0.99, "near pure")
    ops += [_bell_case(rng, _violated_bell(rng, 0.82, 0.9), 2, sym, "not 2-extendable") for _ in range(4)]
    werner(4, 2, 3, -0.95, -0.45, "infeasible")
    werner(3, 2, 3, 0.95, 0.99, "near pure")
    # the 90th-percentile plateau: d=2, k=4 infeasible solves, about 100 iterations at side 32
    werner(12, 2, 4, -0.9, -0.7, "infeasible")
    # the expensive tail: sides 64 and 81
    werner(1, 3, 3, -0.95, -0.85, "infeasible")
    werner(1, 2, 5, -0.9, -0.7, "infeasible")
    # Undecided after the full iteration budget: near the k = 3 boundary
    ops.append(_bell_case(rng, _near(rng, [0.70, 0.145, 0.105, 0.05], 10000.0), 3, sym, "undecided"))
    return ops


def _oracle_bosonic_face_ops(rng) -> list[SolveOp]:
    bos = BOSONIC
    ops = []
    for d, ks, feasible in ((2, range(2, 9), 3), (3, range(2, 5), 3)):
        for k in ks:
            infeasible = 2 if d == 2 else 1
            ops += [_werner_case(rng, d, k, bos, -0.95, -1.0 / k - 0.15, "infeasible") for _ in range(infeasible)]
            ops += [_werner_case(rng, d, k, bos, 0.05, 0.9, "feasible") for _ in range(feasible)]
    for k in (2, 3, 4):
        ops += [_bell_case(rng, rng.dirichlet(np.full(4, 20.0)), k, bos, "near mixed") for _ in range(2)]
    ops += [_bell_case(rng, _violated_bell(rng, 0.82, 0.9), 2, bos, "violated") for _ in range(2)]
    # rank-deficient marginals, both flavors: facial reduction and reach tests
    for flavor in (SYMMETRIC, BOSONIC):
        for d, ks in ((2, (2, 3, 4)), (3, (2, 3) if flavor == SYMMETRIC else (2, 3, 4))):
            for k in ks:
                for psi in (-1.0, 1.0):
                    ops.append(_solve(f"werner d={d} k={k} {flavor} psi={psi} [rank-deficient]",
                                      werner_state(d, psi), k, flavor, werner=(d, psi)))
        for k in (2, 3):
            top = rng.uniform(0.3, 0.45)
            ops.append(_bell_case(rng, np.array([top, 1 - top, 0.0, 0.0])[rng.permutation(4)], k, flavor, "rank 2"))
            ops.append(_bell_case(rng, np.eye(4)[int(rng.integers(4))], k, flavor, "pure"))
            ops.append(_bell_case(rng, _near(rng, [0.4, 0.3, 0.3, 0.0]), k + 1, flavor, "rank 3"))
            ops.append(_bell_case(rng, _near(rng, [0.35, 0.65, 0.0, 0.0]), k, flavor, "rank 2", rotate=True))
            ops.append(_bell_case(rng, _near(rng, [0.34, 0.33, 0.33, 0.0]), k + 1, flavor, "rank 3", rotate=True))
        ops.append(_bell_case(rng, _near(rng, [0.6, 0.2, 0.2, 0.0], 20000.0), 3, flavor, "rank 3", rotate=True))
    return ops


# ---------------------------------------------------------------------------
# Entry points


def build(name: str, seed: int, workdir: Path) -> list:
    """The round of operations for one workload, generated from ``seed``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if name == "criteria-sweep":
        workdir.mkdir(parents=True, exist_ok=True)
        return _criteria_ops(rng, workdir)
    ops = _oracle_symmetric_ops(rng) if name == "oracle-symmetric" else _oracle_bosonic_face_ops(rng)
    return [ops[i] for i in rng.permutation(len(ops))]


# extension shapes whose cached operators the oracle workloads use
_ORACLE_SHAPES = {
    "oracle-symmetric": [(SYMMETRIC, d, k) for d, k in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3))],
    "oracle-bosonic-face": [(BOSONIC, 2, k) for k in range(2, 9)]
    + [(BOSONIC, 3, k) for k in range(2, 5)]
    + [(SYMMETRIC, d, k) for d, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))],
}


def warm_up(name: str) -> None:
    """One warm-up operation per shape; fills the program's lru caches."""
    if name == "criteria-sweep":
        with contextlib.redirect_stdout(io.StringIO()):
            cli_mod.main(["bell-sweep", "--grid", "3"])
        return
    one_step = OracleConfig(max_iters=1)
    for flavor, d, k in _ORACLE_SHAPES[name]:
        oracle_mod.oracle_feasibility(ExtensionProblem(werner_state(d, 0.5), k, flavor), one_step)
