"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every criterion asserts its tolerance and its runtime budget.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np

from helpers import certificate_holds, random_symmetric_supported, twirl_channel
from symext import (
    BOSONIC,
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    SYMMETRIC,
    UNDECIDED,
    VIOLATED,
    ExtensionProblem,
    MarginalSet,
    bell_exact_2ext,
    bell_state,
    bosonic_extension_verdict,
    consistency_verdict,
    definetti_gap,
    generalized_coefficients,
    generalized_hat,
    hat_state,
    oracle_feasibility,
    partial_trace,
    partial_transpose,
    random_density,
    symmetric_extension_verdict,
    tilde_state,
    werner_hat_psi,
    werner_state,
    werner_tilde_psi,
    wootters_concurrence,
)
from symext.cli import main as cli_main
from symext.criteria import sufficient_separability


def _report(number: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} - {name}: {detail} [{elapsed:.1f}s < {budget:.0f}s]")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number}: runtime {elapsed:.1f}s exceeds {budget}s"


def _simplex_grid(ticks: int):
    values = [i / (ticks - 1) for i in range(ticks)]
    for p1 in values:
        for p2 in values:
            for p3 in values:
                p4 = 1.0 - p1 - p2 - p3
                if p4 >= -1e-9:
                    yield p1, p2, p3, max(p4, 0.0)


def test_criterion_01_bell_hat_equivalence():
    """Hat-state PPT at k=2 is exactly the max p_i <= 3/4 polytope on a 20^3 grid."""
    t0 = time.perf_counter()
    checked = mismatches = 0
    for p in _simplex_grid(20):
        if abs(max(p) - 0.75) < 1e-9:
            continue  # boundary band excluded
        checked += 1
        verdict = bosonic_extension_verdict(ExtensionProblem(bell_state(p), 2, BOSONIC))
        if (verdict.status == INCONCLUSIVE) != (max(p) <= 0.75):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(1, "Bell-diagonal hat/polytope equivalence", mismatches == 0,
            f"{checked} grid points, {mismatches} mismatches", elapsed, 10.0)


def _run_volume(which: str, samples: int, seed: int) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["volume", "--which", which, "--samples", str(samples), "--seed", str(seed)])
    assert code == 0
    return json.loads(buf.getvalue())


def test_criterion_02_volumes():
    """Monte Carlo volumes: polytope 0.15625 and exact set 0.15115 within 2e-3."""
    t0 = time.perf_counter()
    assert 1 / 6 - 4 * (1 / 4) ** 3 / 6 == 0.15625  # corner-cut value is exact
    poly = _run_volume("polytope", 10_000_000, 20260810)
    exact = _run_volume("exact", 10_000_000, 20260810)
    err_poly = abs(poly["volume"] - 0.15625)
    err_exact = abs(exact["volume"] - 0.15115)
    ok = err_poly <= 2e-3 and err_exact <= 2e-3
    elapsed = time.perf_counter() - t0
    _report(2, "region volumes (1e7 seeded samples)", ok,
            f"polytope {poly['volume']:.5f} (err {err_poly:.1e}), exact {exact['volume']:.5f} (err {err_exact:.1e})",
            elapsed, 60.0)


def test_criterion_03_werner_thresholds():
    """Analytic map zeros to 1e-12 and PPT transitions within one 0.01 grid step."""
    t0 = time.perf_counter()
    ok = True
    details = []
    psis = np.linspace(-1.0, 1.0, 201)
    for d in (2, 3):
        for k in (2, 3, 4):
            ok &= abs(werner_hat_psi(d, k, -1 / k)) <= 1e-12
            ok &= abs(werner_tilde_psi(d, k, -d / k)) <= 1e-12
            tilde_flags = []
            hat_flags = []
            for psi in psis:
                rho = werner_state(d, float(psi))
                tilde_flags.append(
                    np.linalg.eigvalsh(partial_transpose(tilde_state(rho, k), 1))[0] >= -1e-9
                )
                hat_flags.append(
                    np.linalg.eigvalsh(partial_transpose(hat_state(rho, k), 1))[0] >= -1e-9
                )
            for flags, threshold in ((tilde_flags, -d / k), (hat_flags, -1 / k)):
                if threshold < -1.0:
                    ok &= all(flags)
                    continue
                found = psis[flags.index(True)]
                if abs(found - threshold) > 0.01 + 1e-9:
                    ok = False
                    details.append(f"d={d} k={k}: transition {found:.3f} vs {threshold:.3f}")
    elapsed = time.perf_counter() - t0
    _report(3, "Werner threshold maps and PPT transitions", ok,
            "; ".join(details) if details else "all d in {2,3}, k in {2,3,4} within one step",
            elapsed, 30.0)


def test_criterion_04_nonoptimality_gap():
    """d=2, k=3, psi=-0.5: criterion silent, oracle infeasible; transition at -1/3 +/- 0.02."""
    t0 = time.perf_counter()
    rho = werner_state(2, -0.5)
    verdict = symmetric_extension_verdict(ExtensionProblem(rho, 3, SYMMETRIC))
    problem = ExtensionProblem(rho, 3, SYMMETRIC)
    oracle = oracle_feasibility(problem)
    ok = verdict.status == INCONCLUSIVE and oracle.status == INFEASIBLE and certificate_holds(oracle, problem)

    threshold = -1 / 3
    statuses = {}
    uncertified = 0
    for i in range(-45, -19):
        psi = i / 100
        problem = ExtensionProblem(werner_state(2, psi), 3, SYMMETRIC)
        res = oracle_feasibility(problem)
        statuses[psi] = res.status
        if res.status == INFEASIBLE:
            uncertified += not certificate_holds(res, problem)
    ok &= uncertified == 0
    for psi, status in statuses.items():
        if psi < threshold - 0.02 and status == FEASIBLE:
            ok = False
        if psi > threshold + 0.02 and status == INFEASIBLE:
            ok = False
    infeasible = [psi for psi, s in statuses.items() if s == INFEASIBLE]
    feasible = [psi for psi, s in statuses.items() if s == FEASIBLE]
    ok &= bool(infeasible) and bool(feasible)
    ok &= max(infeasible) <= threshold + 0.02 + 1e-9
    ok &= min(feasible) >= threshold - 0.02 - 1e-9
    elapsed = time.perf_counter() - t0
    _report(4, "Werner non-optimality gap (d=2, k=3)", ok,
            f"verdict {verdict.status}, oracle {oracle.status}; "
            f"transition in [{max(infeasible):.2f}, {min(feasible):.2f}] around -1/3; "
            f"{uncertified} Infeasible without a checked certificate",
            elapsed, 300.0)


def _exact_margin(p1, p2, p3):
    p4 = 1.0 - p1 - p2 - p3
    prod = np.clip(p1 * p2 * p3 * p4, 0.0, None)
    return p1**2 + p2**2 + p3**2 + p4**2 - 4.0 * np.sqrt(prod) - 0.5


def _exact_boundary_cloud(ticks: int = 121) -> np.ndarray:
    """Points on the exact-condition boundary surface, via edge bisection on a fine grid."""
    t = np.linspace(0.0, 1.0, ticks)
    step = t[1] - t[0]
    g1, g2, g3 = np.meshgrid(t, t, t, indexing="ij")
    inside = g1 + g2 + g3 <= 1.0 + 1e-12
    margin = _exact_margin(g1, g2, g3)
    clouds = []
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        crossing = (margin[lo] * margin[hi] <= 0.0) & inside[lo] & inside[hi]
        if not crossing.any():
            continue
        a = np.stack([g1[lo][crossing], g2[lo][crossing], g3[lo][crossing]], axis=1)
        b = a.copy()
        b[:, axis] += step
        ga = _exact_margin(a[:, 0], a[:, 1], a[:, 2])
        for _ in range(40):
            mid = (a + b) / 2
            gm = _exact_margin(mid[:, 0], mid[:, 1], mid[:, 2])
            same = ga * gm > 0
            a[same] = mid[same]
            ga[same] = gm[same]
            b[~same] = mid[~same]
        clouds.append((a + b) / 2)
    return np.vstack(clouds)


def test_criterion_05_oracle_vs_exact_bell():
    """Oracle matches the exact 2-extendability inequality outside a 0.02 band."""
    t0 = time.perf_counter()
    cloud = _exact_boundary_cloud()
    checked = mismatches = undecided_outside = skipped = uncertified = 0
    for p1, p2, p3, p4 in _simplex_grid(10):
        point = np.array([p1, p2, p3])
        dist = float(np.sqrt(((cloud - point) ** 2).sum(axis=1).min()))
        if dist < 0.02:
            skipped += 1
            continue
        checked += 1
        expected = FEASIBLE if bell_exact_2ext((p1, p2, p3, p4)) else INFEASIBLE
        problem = ExtensionProblem(bell_state((p1, p2, p3, p4)), 2, SYMMETRIC)
        res = oracle_feasibility(problem)
        if res.status == UNDECIDED:
            undecided_outside += 1
        elif res.status != expected:
            mismatches += 1
        if res.status == INFEASIBLE:
            uncertified += not certificate_holds(res, problem)
    ok = mismatches == 0 and undecided_outside == 0 and uncertified == 0 and checked > 100
    elapsed = time.perf_counter() - t0
    _report(5, "oracle vs exact Bell condition", ok,
            f"{checked} points checked ({skipped} in band), {mismatches} mismatches, "
            f"{undecided_outside} undecided outside band, {uncertified} Infeasible without a checked certificate",
            elapsed, 600.0)


def test_criterion_06_twirl_identity():
    """Twirl output matches the normalized tr(rho) I + k rho_B form to 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for d in (2, 3):
        for k in (2, 3):
            for _ in range(25):
                rho = random_symmetric_supported(d, k, rng)
                out = twirl_channel(rho, d)
                rho_b = partial_trace(rho, [0]).mat
                expected = (np.eye(d) + k * rho_b) / (d + k)
                worst = max(worst, float(np.max(np.abs(out - expected))))
    elapsed = time.perf_counter() - t0
    _report(6, "twirl identity on 100 random symmetric states", worst <= 1e-10,
            f"worst deviation {worst:.2e}", elapsed, 10.0)


def test_criterion_07_generalized_reduction():
    """generalized_hat at r=1 equals hat_state to 1e-12; weights sum to 1 to 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2027)
    worst = 0.0
    cases = [(d, k) for d in (2, 3) for k in (1, 2, 3)]
    for i in range(100):
        d, k = cases[i % len(cases)]
        rho = random_density((2, d), rng)
        dev = float(np.max(np.abs(generalized_hat(rho, k).mat - hat_state(rho, k).mat)))
        worst = max(worst, dev)
    sums_ok = True
    for k in range(1, 7):
        for d in range(2, 5):
            for r in range(1, min(k, 3) + 1):
                sums_ok &= abs(generalized_coefficients(k, d, r).sum() - 1.0) <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(7, "generalized-hat reduction and weights", worst <= 1e-12 and sums_ok,
            f"worst r=1 deviation {worst:.2e}, weight sums ok={sums_ok}", elapsed, 10.0)


def test_criterion_08_pentagon():
    """Pipeline equals the pentagon on a 100x100 grid; pentagon beats CKW for psi < 0."""
    t0 = time.perf_counter()
    psis = np.linspace(-1.0, 1.0, 100)
    states = [werner_state(2, float(psi)) for psi in psis]
    concurrences = [wootters_concurrence(s) for s in states]
    mismatches = ckw_counterexamples = 0
    strict_point = False
    for i, psi1 in enumerate(psis):
        for j, psi2 in enumerate(psis):
            pentagon = psi1 + psi2 >= -1.0
            if abs(psi1 + psi2 + 1.0) > 1e-6:
                verdict = consistency_verdict(MarginalSet([states[i], states[j]]))
                if (verdict.status == INCONCLUSIVE) != pentagon:
                    mismatches += 1
            if psi1 < 0 and psi2 < 0:
                ckw_pass = concurrences[i] ** 2 + concurrences[j] ** 2 <= 1.0 + 1e-9
                if not ckw_pass and pentagon:
                    ckw_counterexamples += 1  # CKW detects something the pentagon misses
                if not pentagon and ckw_pass:
                    strict_point = True  # pentagon detects, CKW silent
    ok = mismatches == 0 and ckw_counterexamples == 0 and strict_point
    elapsed = time.perf_counter() - t0
    _report(8, "consistency pentagon and CKW containment", ok,
            f"{mismatches} grid mismatches, {ckw_counterexamples} CKW counterexamples, "
            f"strict containment witnessed={strict_point}",
            elapsed, 30.0)


def test_criterion_09_definetti_bound():
    """gap <= 2 d_B^2/(d_B^2+k) on 1000 random states; Bell instance exact to 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2028)
    violations = 0
    for i in range(1000):
        d_a = (2, 3)[i % 2]
        d_b = (2, 3)[(i // 2) % 2]
        k = 1 + i % 10
        result = definetti_gap(random_density((d_a, d_b), rng), k)
        if result.gap > result.bound + 1e-12:
            violations += 1
    bell = definetti_gap(bell_state([1, 0, 0, 0]), 2)
    bell_ok = abs(bell.gap - 1.0) <= 1e-10 and abs(bell.bound - 4 / 3) <= 1e-10
    elapsed = time.perf_counter() - t0
    _report(9, "distance-to-derived-state bound", violations == 0 and bell_ok,
            f"{violations} violations in 1000 samples; Bell gap {bell.gap:.12f}, bound {bell.bound:.12f}",
            elapsed, 30.0)


def test_criterion_10_hat_k1_separability():
    """hat(rho, 1) passes PPT and the sufficient condition for 1000 random two-qubit states."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2029)
    ppt_failures = sufficient_failures = 0
    for _ in range(1000):
        sigma = hat_state(random_density((2, 2), rng), 1)
        if np.linalg.eigvalsh(partial_transpose(sigma, 1))[0] < -1e-9:
            ppt_failures += 1
        if not sufficient_separability(sigma):
            sufficient_failures += 1
    ok = ppt_failures == 0 and sufficient_failures == 0
    elapsed = time.perf_counter() - t0
    _report(10, "k=1 hat states are separable", ok,
            f"{ppt_failures} PPT failures, {sufficient_failures} sufficient-condition failures",
            elapsed, 10.0)
