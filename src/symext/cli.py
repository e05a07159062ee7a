"""Command-line front end: verdicts, parameter sweeps, and volume estimates.

Verdicts print as JSON on stdout; sweeps print CSV with a fixed header and
lexicographic grid order, so output is byte-stable and diffable.  Monte
Carlo commands use the counter-based Philox generator, fully determined by
the --seed flag.  Exit codes: 0 = evaluated (whatever the verdict),
1 = input or validation error, 2 = resource guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import IO, Sequence

import numpy as np

from .consistency import MarginalSet, consistency_verdict
from .criteria import (
    BOSONIC,
    INCONCLUSIVE,
    SYMMETRIC,
    ExtensionProblem,
    bosonic_extension_verdict,
    definetti_gap,
    hat_state,
    ppt_test,
    symmetric_extension_verdict,
    tilde_state,
)
from .errors import ResourceLimitError, ValidationError
from .families import (
    bell_exact_2ext,
    bell_polytope_condition,
    bell_ssa,
    bell_state,
    ckw_check,
    ssa_check,
    werner_exact_threshold,
    werner_state,
)
from .linalg import DensityMatrix, random_density
from .oracle import oracle_feasibility

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2

MC_BATCH = 1_000_000

# bell-sweep columns in output order: (criterion, CSV header, row flag from (p, k))
BELL_COLUMNS = (
    ("polytope", "polytope", lambda p, k: bell_polytope_condition(p)),
    ("exact", "exact", lambda p, k: bell_exact_2ext(p)),
    ("ssa", "ssa", lambda p, k: bell_ssa(p)),
    (
        "ppt",
        "hat_ppt",
        lambda p, k: bosonic_extension_verdict(ExtensionProblem(bell_state(p), k, BOSONIC)).status == INCONCLUSIVE,
    ),
)
BELL_CRITERIA = tuple(name for name, _, _ in BELL_COLUMNS)


class CliInputError(Exception):
    """Bad command line or bad input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which is reserved for the
    # resource guard here; route usage errors to the input-error exit instead.
    def error(self, message):
        raise CliInputError(message)


# ---------------------------------------------------------------------------
# State files: {"dims": [...], "matrix": {"re": [[...]], "im": [[...]]}}
# with real/imaginary parts split so any JSON reader can parse them.


def state_to_obj(rho: DensityMatrix) -> dict:
    return {
        "dims": list(rho.dims),
        "matrix": {"re": rho.mat.real.tolist(), "im": rho.mat.imag.tolist()},
    }


def state_from_obj(obj: dict, tol: float = 1e-10) -> DensityMatrix:
    try:
        dims = [int(d) for d in obj["dims"]]
        re = np.asarray(obj["matrix"]["re"], dtype=float)
        im = np.asarray(obj["matrix"]["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as err:
        raise CliInputError(f"malformed state object: {err}") from err
    if re.ndim != 2 or re.shape != im.shape:
        raise CliInputError(f"re/im parts must be equal-shape 2-D arrays, got {re.shape} and {im.shape}")
    return DensityMatrix(re + 1j * im, dims, tol=tol)


def load_state(path: str, tol: float = 1e-10) -> DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise CliInputError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise CliInputError(f"{path} is not valid JSON: {err}") from err
    return state_from_obj(obj, tol=tol)


def dump_state(rho: DensityMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_obj(rho), fh)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Output helpers.


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _emit_json(obj: dict, out: IO[str]) -> None:
    out.write(json.dumps(obj, sort_keys=True))
    out.write("\n")


def _write_rows(header: Sequence[str], rows, out: IO[str]) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_check(args, out: IO[str]) -> int:
    rho = load_state(args.state, tol=args.tol)
    problem = ExtensionProblem(rho, args.k, args.flavor)
    if args.flavor == SYMMETRIC:
        verdict = symmetric_extension_verdict(problem)
    else:
        verdict = bosonic_extension_verdict(problem)
    _emit_json(
        {
            "criterion": verdict.criterion,
            "status": verdict.status,
            "witness": dict(verdict.witness),
            "derived_state_min_pt_eig": verdict.witness["min_pt_eig"],
            "k": args.k,
            "flavor": args.flavor,
        },
        out,
    )
    return EXIT_OK


def _cmd_consistency(args, out: IO[str]) -> int:
    if len(args.states) < 2:
        raise CliInputError("need at least two state files")
    marginals = [load_state(path, tol=args.tol) for path in args.states]
    verdict = consistency_verdict(MarginalSet(marginals))
    _emit_json(
        {
            "status": verdict.status,
            "rule": verdict.criterion,
            "witness": dict(verdict.witness),
            "k": len(marginals),
        },
        out,
    )
    return EXIT_OK


def _bell_rows(n: int, k: int, flags):
    ticks = [i / (n - 1) for i in range(n)]
    for p1 in ticks:
        for p2 in ticks:
            for p3 in ticks:
                p4 = 1.0 - p1 - p2 - p3
                if p4 < -1e-9:
                    continue
                p = (p1, p2, p3, max(p4, 0.0))
                yield [_fmt(p1), _fmt(p2), _fmt(p3)] + [str(int(flag(p, k))) for flag in flags]


def _cmd_bell_sweep(args, out: IO[str]) -> int:
    if args.grid < 2:
        raise CliInputError(f"--grid must be at least 2, got {args.grid}")
    if args.k < 1:
        raise CliInputError(f"--k must be at least 1, got {args.k}")
    criteria = tuple(name.strip() for name in args.criteria.split(","))
    for name in criteria:
        if name not in BELL_CRITERIA:
            raise CliInputError(f"unknown criterion {name!r}; choose from {', '.join(BELL_CRITERIA)}")
    columns = [(header, flag) for name, header, flag in BELL_COLUMNS if name in criteria]
    header = ["p1", "p2", "p3"] + [h for h, _ in columns]
    _write_rows(header, _bell_rows(args.grid, args.k, [flag for _, flag in columns]), out)
    return EXIT_OK


def _werner_rows(d: int, k: int, psis, with_oracle: bool):
    exact_threshold = werner_exact_threshold(d, k)
    for psi in psis:
        rho = werner_state(d, float(psi))
        tilde_ok = ppt_test(tilde_state(rho, k)).status == INCONCLUSIVE
        hat_ok = ppt_test(hat_state(rho, k)).status == INCONCLUSIVE
        row = [
            _fmt(float(psi)),
            str(int(tilde_ok)),
            str(int(hat_ok)),
            str(int(psi >= exact_threshold - 1e-12)),
        ]
        if with_oracle:
            problem = ExtensionProblem(rho, k, SYMMETRIC)
            row.append(oracle_feasibility(problem).status)
        yield row


def _cmd_werner_sweep(args, out: IO[str]) -> int:
    if args.d < 2:
        raise CliInputError(f"--d must be at least 2, got {args.d}")
    if args.k < 1:
        raise CliInputError(f"--k must be at least 1, got {args.k}")
    if not 0 < args.psi_step <= 1:
        raise CliInputError(f"--psi-step must lie in (0, 1], got {args.psi_step}")
    n = int(round(2.0 / args.psi_step)) + 1
    psis = np.linspace(-1.0, 1.0, n)
    header = ["psi", "tilde_ppt", "hat_ppt", "exact_flag"]
    if args.with_oracle:
        header.append("oracle_status")
    _write_rows(header, _werner_rows(args.d, args.k, psis, args.with_oracle), out)
    return EXIT_OK


def _volume_membership(which: str, u: np.ndarray) -> np.ndarray:
    p4 = 1.0 - u.sum(axis=1)
    in_simplex = p4 >= 0.0
    if which == "simplex":
        return in_simplex
    if which == "polytope":
        biggest = np.maximum(u.max(axis=1), p4)
        return in_simplex & (biggest <= 0.75)
    sq = np.sum(u**2, axis=1) + p4**2
    prod = np.prod(u, axis=1) * np.clip(p4, 0.0, None)
    return in_simplex & (sq - 4.0 * np.sqrt(np.clip(prod, 0.0, None)) <= 0.5)


def _cmd_volume(args, out: IO[str]) -> int:
    if args.samples < 10_000:
        raise CliInputError(f"--samples must be at least 10000, got {args.samples}")
    rng = np.random.Generator(np.random.Philox(args.seed))
    hits = 0
    left = args.samples
    while left > 0:
        m = min(left, MC_BATCH)
        u = rng.random((m, 3))
        hits += int(np.count_nonzero(_volume_membership(args.which, u)))
        left -= m
    volume = hits / args.samples
    stderr = math.sqrt(max(volume * (1.0 - volume), 0.0) / args.samples)
    _emit_json(
        {
            "which": args.which,
            "samples": args.samples,
            "seed": args.seed,
            "volume": volume,
            "stderr": stderr,
        },
        out,
    )
    return EXIT_OK


def _consistency_rows(n: int):
    psis = np.linspace(-1.0, 1.0, n)
    for psi1 in psis:
        rho1 = werner_state(2, float(psi1))
        for psi2 in psis:
            rho2 = werner_state(2, float(psi2))
            verdict = consistency_verdict(MarginalSet([rho1, rho2]))
            pentagon = int(verdict.status == INCONCLUSIVE)
            ckw = int(ckw_check(rho1, rho2, 1.0))
            ssa = int(ssa_check(rho1, rho2))
            yield [_fmt(float(psi1)), _fmt(float(psi2)), str(pentagon), str(ckw), str(ssa)]


def _cmd_consistency_sweep(args, out: IO[str]) -> int:
    if args.family != "werner":
        raise CliInputError(f"unsupported family {args.family!r}")
    if args.grid < 2:
        raise CliInputError(f"--grid must be at least 2, got {args.grid}")
    _write_rows(["psi1", "psi2", "pentagon", "ckw", "ssa"], _consistency_rows(args.grid), out)
    return EXIT_OK


def _cmd_definetti(args, out: IO[str]) -> int:
    if args.k_max < 1:
        raise CliInputError(f"--k-max must be at least 1, got {args.k_max}")
    if args.state is not None:
        rho = load_state(args.state, tol=args.tol)
        if len(rho.dims) != 2:
            raise CliInputError(f"state must be bipartite, got layout {rho.dims}")
    else:
        rng = np.random.Generator(np.random.Philox(args.seed))
        rho = random_density((args.d, args.d), rng)
    rows = []
    for k in range(1, args.k_max + 1):
        result = definetti_gap(rho, k)
        rows.append([str(k), _fmt(result.gap), _fmt(result.bound)])
    _write_rows(["k", "gap", "bound"], rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring.


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="symext", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    check = sub.add_parser("check", help="extendability verdict for one state file")
    check.add_argument("state", help="path to a JSON state file")
    check.add_argument("--k", type=int, required=True, help="extension count")
    check.add_argument("--flavor", choices=(SYMMETRIC, BOSONIC), default=SYMMETRIC)
    check.add_argument("--tol", type=float, default=1e-10, help="state validation tolerance")
    check.set_defaults(func=_cmd_check)

    cons = sub.add_parser("consistency", help="joint-consistency verdict for two or more marginals")
    cons.add_argument("states", nargs="+", help="paths to JSON state files sharing the A factor")
    cons.add_argument("--tol", type=float, default=1e-10)
    cons.set_defaults(func=_cmd_consistency)

    bell = sub.add_parser("bell-sweep", help="criteria over the Bell-diagonal simplex grid")
    bell.add_argument("--grid", type=int, default=20, help="ticks per axis")
    bell.add_argument("--k", type=int, default=2)
    bell.add_argument("--criteria", default=",".join(BELL_CRITERIA))
    bell.set_defaults(func=_cmd_bell_sweep)

    werner = sub.add_parser("werner-sweep", help="derived-state PPT flags along the Werner family")
    werner.add_argument("--d", type=int, default=2)
    werner.add_argument("--k", type=int, default=2)
    werner.add_argument("--psi-step", type=float, default=0.01)
    werner.add_argument("--with-oracle", action="store_true", help="append the feasibility oracle status")
    werner.set_defaults(func=_cmd_werner_sweep)

    volume = sub.add_parser("volume", help="Monte Carlo volume of a Bell-diagonal region")
    volume.add_argument("--which", choices=("polytope", "exact", "simplex"), required=True)
    volume.add_argument("--samples", type=int, required=True)
    volume.add_argument("--seed", type=int, required=True)
    volume.set_defaults(func=_cmd_volume)

    csweep = sub.add_parser("consistency-sweep", help="pentagon/CKW/SSA flags over Werner pairs")
    csweep.add_argument("--family", default="werner")
    csweep.add_argument("--grid", type=int, default=100)
    csweep.set_defaults(func=_cmd_consistency_sweep)

    definetti = sub.add_parser("definetti", help="distance-to-derived-state gap and bound per k")
    definetti.add_argument("--d", type=int, default=2)
    definetti.add_argument("--k-max", dest="k_max", type=int, default=10)
    definetti.add_argument("--state", default=None, help="optional JSON state file")
    definetti.add_argument("--seed", type=int, default=2026, help="seed for the random state when no file is given")
    definetti.add_argument("--tol", type=float, default=1e-10)
    definetti.set_defaults(func=_cmd_definetti)

    for p in (bell, werner, csweep, definetti):
        p.add_argument("--out", default=None, help="write to this file instead of stdout")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out_path = getattr(args, "out", None)
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                return args.func(args, fh)
        return args.func(args, sys.stdout)
    except (CliInputError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
