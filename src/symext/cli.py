"""Command-line front end: verdicts, parameter sweeps, and volume estimates.

Verdicts print as JSON on stdout; sweeps print CSV with a fixed header and
lexicographic grid order, so output is byte-stable and diffable.  Monte
Carlo commands use the counter-based Philox generator, fully determined by
the --seed flag.  Exit codes: 0 = evaluated (whatever the verdict),
1 = input or validation error, 2 = resource guard, 141 = the reader of
stdout closed it early (as for a process that SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import sys
from typing import IO, Sequence

import numpy as np

from .consistency import MarginalSet, _consistency_min_pt_eigs, consistency_verdict
from .criteria import (
    BOSONIC,
    SYMMETRIC,
    ExtensionProblem,
    _derived_min_pt_eigs,
    _ppt_passes,
    bosonic_extension_verdict,
    definetti_gap,
    symmetric_extension_verdict,
)
from .errors import ResourceLimitError, ValidationError
from .families import (
    _a_marginal_spreads,
    _bell_exact_flags,
    _bell_mats,
    _bell_polytope_flags,
    _bell_ssa_flags,
    _ckw_holds,
    _concurrences,
    _require_a_agreement,
    _ssa_flags,
    _werner_mats,
    werner_exact_threshold,
)
from .linalg import (
    HERM_TOL,
    DensityMatrix,
    _checked_array,
    _checked_int,
    _checked_tol,
    _exact_real,
    _reduced_entropies,
    _reduced_stack,
    _require_work,
    _shown,
    _spectral_entropies,
    _validated_spectra,
    random_density,
)
from .oracle import _check_reach, oracle_feasibility

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE

MC_BATCH = 1_000_000

# Sweeps evaluate their grids in chunks of states whose matrices hold at
# most this many entries in all (256 two-qubit states, 50 two-qutrit states,
# one state once side^2 exceeds it), so memory stays flat whatever the grid.
_CHUNK_ENTRIES = 4096

# Guards on per-row Python work, which the dense-work rule does not count: every sweep and the definetti
# table print at most _MAX_ROWS rows, and volume draws at most _MAX_SAMPLES points, about 100 s at 10 M a second.
_MAX_ROWS = 2_000_001
_MAX_SAMPLES = 1_000_000_000


def _require_rows(flag: str, rows: int) -> None:
    if rows > _MAX_ROWS:
        raise ResourceLimitError(f"{flag} gives {_shown(rows)} rows, above the sweep limit {_MAX_ROWS}")


def _family_stack(mats: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sweep's stack of family states, validated in float64 when real, reduced once.

    Returns (Hermitian parts, ascending spectra, A marginals proven valid from the spectra).
    """
    mats, spectra = _validated_spectra(_exact_real(mats), HERM_TOL)
    return mats, spectra, _reduced_stack(mats, dims, [0], HERM_TOL, spectra[:, 0])[0]


def _bell_hat_ppt_flags(p: np.ndarray, k: int) -> np.ndarray:
    """Where the bosonic extension verdict (the hat-state PPT test) of each Bell-diagonal state is Inconclusive."""
    mats, _, a = _family_stack(_bell_mats(p), (2, 2))
    return _ppt_passes(_derived_min_pt_eigs(mats, a, k, BOSONIC))


# bell-sweep columns in output order: (criterion, CSV header, flags from checked (N, 4) weights and k)
BELL_COLUMNS = (
    ("polytope", "polytope", lambda p, k: _bell_polytope_flags(p)),
    ("exact", "exact", lambda p, k: _bell_exact_flags(p)),
    ("ssa", "ssa", lambda p, k: _bell_ssa_flags(p)),
    ("ppt", "hat_ppt", _bell_hat_ppt_flags),
)
BELL_CRITERIA = tuple(name for name, _, _ in BELL_COLUMNS)


class CliInputError(Exception):
    """Bad command line or bad input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which is reserved for the
    # resource guard here; route usage errors to the input-error exit instead.
    def error(self, message):
        raise CliInputError(message)


def _flag_type(kind, ok, refusal: str = ""):
    """An argparse type= function: kind parses a flag's text, and a value v is refused unless ok(v).

    The refusal is a CliInputError, refusal.format(v) or the words of a ValidationError from ok.  argparse
    passes it through, but rewords a ValueError as it does text kind cannot parse ("invalid int value").
    """

    def typed(text: str):
        value = kind(text)
        try:
            if ok(value):
                return value
        except ValidationError as err:
            raise CliInputError(err) from None
        raise CliInputError(refusal.format(_shown(value)))

    typed.__name__ = kind.__name__
    return typed


def _at_least(flag: str, least: int):  # by the integer rule, which refuses an int beyond the float range
    return _flag_type(int, lambda v: _checked_int(v, flag, None) >= least, f"{flag} must be at least {least}, got {{}}")


def _criteria(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(","))
    for name in names:
        if name not in BELL_CRITERIA:
            raise CliInputError(f"unknown criterion {name!r}; choose from {', '.join(BELL_CRITERIA)}")
    return names


# ---------------------------------------------------------------------------
# State files: {"dims": [...], "matrix": {"re": [[...]], "im": [[...]]}}
# with real/imaginary parts split so any JSON reader can parse them.


def state_from_obj(obj: dict, tol: float = HERM_TOL) -> DensityMatrix:
    """The state of a decoded state file, validated at tol; its validating eigensolve is estimated first."""
    try:
        dims = list(obj["dims"])
        # by the real rule: numeric strings, all-bool parts and ints past the float range (dtype object) are refused
        re, im = (_checked_array(obj["matrix"][part], "state matrix", "iuf") for part in ("re", "im"))
    except (KeyError, TypeError) as err:
        raise CliInputError(f"malformed state object: {err}") from err
    if re.ndim != 2 or re.shape != im.shape:
        raise CliInputError(f"re/im parts must be equal-shape 2-D arrays, got {re.shape} and {im.shape}")
    lg = math.log2(max(re.size, 1)) / 2  # log2 of the side of a square matrix, which one eigensolve validates
    _require_work("state file", 3 * lg, 4 + 2 * lg)
    mat = np.empty(re.shape, dtype=complex)  # each part as the file has it, signed zeros included
    mat.real, mat.imag = re, im
    return DensityMatrix(mat, dims, tol=tol)


def load_state(path: str, tol: float = HERM_TOL) -> DensityMatrix:
    """The state in a JSON state file, read as bytes and decoded as UTF-8; see :func:`state_from_obj`."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:  # newlines as text mode reads them, which the positions in a JSON error count
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        obj = json.loads(text)
    except OSError as err:
        raise CliInputError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise CliInputError(f"{path} is not valid UTF-8: {err}") from err
    except json.JSONDecodeError as err:
        raise CliInputError(f"{path} is not valid JSON: {err}") from err
    except RecursionError:
        raise CliInputError(f"{path} is not valid JSON: arrays or objects nested too deeply") from None
    return state_from_obj(obj, tol=tol)


# ---------------------------------------------------------------------------
# Output helpers.


def _fmt(x: float) -> str:
    return f"{x:.10g}"


_JSON = json.JSONEncoder(sort_keys=True)  # what json.dumps(obj, sort_keys=True) builds on every call


def _emit_json(obj: dict, out: IO[str]) -> None:
    out.write(_JSON.encode(obj) + "\n")


class _OutFile:
    """The --out file, opened (and truncated) at the first write.

    Every guard and input check runs before a command writes its first line,
    so a refused command leaves an existing file untouched and creates none.
    """

    def __init__(self, path: str):
        self.path = path
        self.fh: IO[str] | None = None

    def write(self, s: str) -> int:
        try:
            if self.fh is None:
                self.fh = open(self.path, "w", encoding="utf-8", newline="")
            return self.fh.write(s)
        except OSError as err:
            raise self._error(err) from err

    def close(self) -> None:
        if self.fh is not None:
            try:
                self.fh.close()
            except OSError as err:  # the final flush, e.g. a full disk
                raise self._error(err) from err

    def _error(self, err: OSError) -> CliInputError:
        return CliInputError(f"cannot write {self.path}: {err}")


def _write_rows(header: Sequence[str], lines, out: IO[str]) -> None:
    """The header, then each finished line with one write, so a reader sees every row as it is made."""
    out.write(",".join(header) + "\n")
    for line in lines:
        out.write(line)


def _flag_lines(prefixes: Sequence[str], flags: Sequence[np.ndarray]) -> list[str]:
    """A chunk's CSV lines: each prefix, then its row of the boolean flag columns as ,0 / ,1 cells, then a newline.

    Each row's flags are packed into one code, which picks its tail from a table of all 2^m patterns.
    """
    tails = ["".join("," + bit for bit in bits) + "\n" for bits in itertools.product("01", repeat=len(flags))]
    codes = np.zeros(len(prefixes), dtype=np.intp)
    for column in flags:
        codes = 2 * codes + column
    return [prefix + tails[code] for prefix, code in zip(prefixes, codes.tolist())]


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_check(args, out: IO[str]) -> int:
    rho = load_state(args.state, tol=args.tol)
    problem = ExtensionProblem(rho, args.k, args.flavor)
    verdict = (symmetric_extension_verdict if args.flavor == SYMMETRIC else bosonic_extension_verdict)(problem)
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


def _chunk_size(side: int) -> int:
    """States per chunk for matrices of the given side."""
    return max(1, _CHUNK_ENTRIES // (side * side))


def _linspace_chunks(n: int, size: int):
    """np.linspace(-1.0, 1.0, n) in consecutive pieces of at most ``size`` values, bit for bit."""
    step = 2.0 / (n - 1)
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        piece = np.arange(lo, hi, dtype=float) * step - 1.0
        if hi == n:
            piece[-1] = 1.0
        yield piece


def _bell_points(n: int):
    """The Bell simplex grid in lexicographic order, in chunks of _chunk_size(4) points: ("p1,p2,p3" labels, weights).

    Built one p1 slab at a time from index arrays, the remainder carried into the next chunk.
    """
    size = _chunk_size(4)
    ticks = np.arange(n) / (n - 1)
    labels = [_fmt(t) for t in ticks.tolist()]
    heads = [label + "," for label in labels]
    rest, p = [], np.empty((0, 4))
    for i1, p1 in enumerate(ticks.tolist()):
        p4 = 1.0 - p1 - ticks[:, None] - ticks  # ((1 - p1) - p2) - p3, as the scalar formula rounds
        i2, i3 = np.nonzero(~(p4 < -1e-9))
        rest += [heads[i1] + heads[a] + labels[b] for a, b in zip(i2.tolist(), i3.tolist())]
        slab = np.column_stack([np.full(len(i2), p1), ticks[i2], ticks[i3], np.maximum(p4[i2, i3], 0.0)])
        p = np.concatenate([p, slab])
        full = len(rest) if i1 == n - 1 else len(rest) - len(rest) % size
        for lo in range(0, full, size):
            yield rest[lo : lo + size], p[lo : lo + size]
        rest, p = rest[full:], p[full:]


def _bell_rows(n: int, k: int, flags):
    for labels, p in _bell_points(n):  # p in [0, 1] and summing to 1 by construction
        yield from _flag_lines(labels, [flag(p, k) for flag in flags])


def _cmd_bell_sweep(args, out: IO[str]) -> int:
    _require_rows(f"--grid {_shown(args.grid)}", math.comb(args.grid + 2, 3))
    columns = [(header, flag) for name, header, flag in BELL_COLUMNS if name in args.criteria]
    header = ["p1", "p2", "p3"] + [h for h, _ in columns]
    _write_rows(header, _bell_rows(args.grid, args.k, [flag for _, flag in columns]), out)
    return EXIT_OK


def _werner_rows(d: int, k: int, n: int, with_oracle: bool):
    exact_threshold = werner_exact_threshold(d, k)
    dims = (d, d)
    for psis in _linspace_chunks(n, _chunk_size(d * d)):
        mats, spectra, a = _family_stack(_werner_mats(d, psis), dims)  # one A marginal for both columns
        flags = [
            _ppt_passes(_derived_min_pt_eigs(mats, a, k, SYMMETRIC)),
            _ppt_passes(_derived_min_pt_eigs(mats, a, k, BOSONIC)),
            psis >= exact_threshold - 1e-12,
        ]
        lines = _flag_lines([_fmt(psi) for psi in psis.tolist()], flags)
        if not with_oracle:
            yield from lines
            continue
        for i, line in enumerate(lines):
            # validated above with its spectrum, at the tolerance DensityMatrix defaults to
            problem = ExtensionProblem(DensityMatrix._proven(mats[i], dims, HERM_TOL, spectra[i]), k, SYMMETRIC)
            yield f"{line[:-1]},{oracle_feasibility(problem).status}\n"


def _cmd_werner_sweep(args, out: IO[str]) -> int:
    steps = 2.0 / args.psi_step  # inf for a subnormal step
    n = round(steps) + 1 if math.isfinite(steps) else math.inf
    _require_rows(f"--psi-step {args.psi_step}", n)
    lg = 2 * math.log2(args.d)  # log2 of the side d^2; a row solves the state and its two derived states
    _require_work(f"--d {_shown(args.d)} with --psi-step {args.psi_step}", math.log2(3 * n) + 3 * lg, 4 + 2 * lg)
    header = ["psi", "tilde_ppt", "hat_ppt", "exact_flag"]
    if args.with_oracle:
        _check_reach(args.d, args.d, args.k, SYMMETRIC)
        header.append("oracle_status")
    _write_rows(header, _werner_rows(args.d, args.k, n, args.with_oracle), out)
    return EXIT_OK


def _volume_membership(which: str, u: np.ndarray) -> np.ndarray:
    p4 = 1.0 - u.sum(axis=1)
    in_simplex = p4 >= 0.0
    if which == "simplex":
        return in_simplex
    p = np.column_stack([u, np.clip(p4, 0.0, None)])
    return in_simplex & (_bell_polytope_flags(p) if which == "polytope" else _bell_exact_flags(p))


def _cmd_volume(args, out: IO[str]) -> int:
    if args.samples > _MAX_SAMPLES:
        raise ResourceLimitError(f"--samples {_shown(args.samples)} is above the limit {_MAX_SAMPLES}")
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


def _werner_pair_table(psis: np.ndarray):
    """Per-state columns of consistency-sweep for two-qubit Werner states: each costs its states, not their pairs.

    (validated states, A marginals, S(rho), S(rho_B), concurrences); the
    reduced states are proven valid from the spectra.
    """
    dims = (2, 2)
    mats, spectra, a = _family_stack(_werner_mats(2, psis), dims)
    s_b = _reduced_entropies(mats, dims, [1], HERM_TOL, spectra[:, 0])
    return mats, a, _spectral_entropies(spectra), s_b, _concurrences(mats)


def _consistency_rows(n: int):
    dims = (2, 2)
    size = _chunk_size(4)
    grid = list(_linspace_chunks(n, size))
    labels = [_fmt(psi) for psis in grid for psi in psis.tolist()]
    heads = [label + "," for label in labels]
    # the n Werner states, each built, validated and reduced once; the pairs index into them
    mats, a, s, s_b, concurrences = map(np.concatenate, zip(*map(_werner_pair_table, grid)))
    for lo in range(0, n * n, size):
        i, j = np.divmod(np.arange(lo, min(lo + size, n * n)), n)
        idx = np.column_stack([i, j])
        _require_a_agreement(_a_marginal_spreads(a, idx))  # the pentagon kernel and SSA take agreeing pairs
        flags = [
            _ppt_passes(_consistency_min_pt_eigs(mats, dims, idx)),
            _ckw_holds(concurrences[i], concurrences[j], 1.0),
            _ssa_flags(s, s_b, idx),
        ]
        yield from _flag_lines([heads[x] + labels[y] for x, y in zip(i.tolist(), j.tolist())], flags)


def _cmd_consistency_sweep(args, out: IO[str]) -> int:
    _require_rows(f"--grid {_shown(args.grid)}", args.grid**2)
    _write_rows(["psi1", "psi2", "pentagon", "ckw", "ssa"], _consistency_rows(args.grid), out)
    return EXIT_OK


def _definetti_rows(rho: DensityMatrix, k_max: int):
    """Rows k = 1..k_max from one trace norm, taken before the header is written: gap and bound scale as 1/(d_B^2 + k)."""
    gap, bound = definetti_gap(rho, 1)
    d_b2 = rho.dims[1] ** 2
    scales = ((k, (d_b2 + 1) / (d_b2 + k)) for k in range(1, k_max + 1))
    return (f"{k},{_fmt(gap * scale)},{_fmt(bound * scale)}\n" for k, scale in scales)


def _cmd_definetti(args, out: IO[str]) -> int:
    _require_rows(f"--k-max {_shown(args.k_max)}", args.k_max)
    if args.state is not None:
        rho = load_state(args.state, tol=args.tol)
    else:
        lg = 2 * math.log2(args.d)  # log2 of the side d^2: the state's product and validation, then the trace norm
        _require_work(f"--d {_shown(args.d)}", math.log2(3) + 3 * lg, 4 + 2 * lg)
        rho = random_density((args.d, args.d), np.random.Generator(np.random.Philox(args.seed)))
    _write_rows(["k", "gap", "bound"], _definetti_rows(rho, args.k_max), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring.


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The symext argument parser, built on the first call and shared after it.

    Each ``parse_args`` returns a new namespace, so the parser holds no state
    between calls; callers must not add arguments to it.
    """
    parser = _Parser(prog="symext", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    tol = _flag_type(float, lambda tol: _checked_tol(tol) >= 0)  # _checked_tol raises outside its domain
    grid, k, seed = _at_least("--grid", 2), _at_least("--k", 1), _at_least("--seed", 0)  # Philox takes seeds >= 0
    psi_step = _flag_type(float, lambda step: 0 < step <= 1, "--psi-step must lie in (0, 1], got {}")

    check = sub.add_parser("check", help="extendability verdict for one state file")
    check.add_argument("state", help="path to a JSON state file")
    check.add_argument("--k", type=int, required=True, help="extension count")
    check.add_argument("--flavor", choices=(SYMMETRIC, BOSONIC), default=SYMMETRIC)
    check.add_argument("--tol", type=tol, default=HERM_TOL, help="state validation tolerance")
    check.set_defaults(func=_cmd_check)

    cons = sub.add_parser("consistency", help="joint-consistency verdict for two or more marginals")
    cons.add_argument("states", nargs="+", help="paths to JSON state files sharing the A factor")
    cons.add_argument("--tol", type=tol, default=HERM_TOL)
    cons.set_defaults(func=_cmd_consistency)

    bell = sub.add_parser("bell-sweep", help="criteria over the Bell-diagonal simplex grid")
    bell.add_argument("--grid", type=grid, default=20, help="ticks per axis")
    bell.add_argument("--k", type=k, default=2)
    bell.add_argument("--criteria", type=_criteria, default=",".join(BELL_CRITERIA))
    bell.set_defaults(func=_cmd_bell_sweep)

    werner = sub.add_parser("werner-sweep", help="derived-state PPT flags along the Werner family")
    werner.add_argument("--d", type=_at_least("--d", 2), default=2)
    werner.add_argument("--k", type=k, default=2)
    werner.add_argument("--psi-step", type=psi_step, default=0.01)
    werner.add_argument("--with-oracle", action="store_true", help="append the feasibility oracle status")
    werner.set_defaults(func=_cmd_werner_sweep)

    volume = sub.add_parser("volume", help="Monte Carlo volume of a Bell-diagonal region")
    volume.add_argument("--which", choices=("polytope", "exact", "simplex"), required=True)
    volume.add_argument("--samples", type=_at_least("--samples", 10_000), required=True)
    volume.add_argument("--seed", type=seed, required=True)
    volume.set_defaults(func=_cmd_volume)

    csweep = sub.add_parser("consistency-sweep", help="pentagon/CKW/SSA flags over Werner pairs")
    csweep.add_argument("--family", choices=("werner",), default="werner")
    csweep.add_argument("--grid", type=grid, default=100)
    csweep.set_defaults(func=_cmd_consistency_sweep)

    definetti = sub.add_parser("definetti", help="distance-to-derived-state gap and bound per k")
    definetti.add_argument("--d", type=_at_least("--d", 1), default=2)
    definetti.add_argument("--k-max", dest="k_max", type=_at_least("--k-max", 1), default=10)
    definetti.add_argument("--state", default=None, help="optional JSON state file")
    definetti.add_argument("--seed", type=seed, default=2026, help="seed for the random state when no file is given")
    definetti.add_argument("--tol", type=tol, default=HERM_TOL)
    definetti.set_defaults(func=_cmd_definetti)

    for p in (bell, werner, csweep, definetti):
        p.add_argument("--out", default=None, help="write to this file instead of stdout")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "out", None) is None:
            code = args.func(args, sys.stdout)
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
            return code
        out = _OutFile(args.out)
        try:
            return args.func(args, out)
        finally:
            out.close()
    except (CliInputError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point the stdout
        # descriptor at devnull so the interpreter's final flush of the
        # buffered rows stays quiet: the Python docs' SIGPIPE recipe.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, io.UnsupportedOperation):
            return EXIT_PIPE  # not a real file: no descriptor to touch
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
