"""symext benchmark: one workload, one closed-loop client, one call at a time.

Run from the repository root:

    python3 bench/run.py --workload criteria-sweep --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed.
Inputs come from ``--seed`` only.  The timed phase repeats the workload's
round of operations until ``--seconds`` have passed, finishing the round in
progress, and every operation's output is checked against a reference
afterwards.  Each round's times are scaled by the machine speed that a
fixed calibration kernel measured just before that round, and each
operation's time is its median over the rounds (see ``bench/NOTES.md``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds of the same operations and reports per-layer
metrics from the traced rounds, plus the tracing overhead measured against
the untraced ones.  The last line of stdout is the result as JSON; the line
before it holds the environment, the behaviour fingerprints and every
failure.  Details and spans are also written under ``bench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads.  One client makes one call at a time on
# matrices of side 4 to 81, where extra BLAS threads only add noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("criteria-sweep", "oracle-symmetric", "oracle-bosonic-face")
SETUP_SAMPLES = 7
# Best time of one calibration sample on the machine the benchmark was
# defined on: 2 x86_64 cores, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31.
CALIBRATION_REF_S = 0.0122
SETUP_TIMEOUT_S = 60
MIN_ROUNDS = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {
        part: {key: deps.get(part, {}).get(key) for key in ("name", "version", "openblas configuration")}
        for part in ("blas", "lapack")
    }
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "process_threads": threads,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _measure_setup(workload: str) -> list[float]:
    """Fresh-interpreter set-up: start, import, one warm-up per cached shape."""
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import workloads; workloads.warm_up(sys.argv[3])"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(SRC), str(BENCH_DIR), workload], stdout=subprocess.DEVNULL, cwd=ROOT
        )
        # a blocking wait; wait(timeout=...) polls and rounds the time up to 50 ms steps
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            returncode = proc.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        if returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} exited with code {returncode}")
        samples.append(elapsed)
    return samples


class _Calibration:
    """A fixed numpy and Python kernel that uses no symext code.

    It runs before every round.  On a shared machine outside load slows
    every process by up to half, for seconds or minutes at a time; the
    kernel's time just before a round tracks that, and scales the round's
    timings to the reference machine.  A change to symext cannot move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(0))
        self._np = np
        self._mats = []
        for n in (4, 9, 16, 32, 64):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self._mats.append(g + g.conj().T)
        self.samples: list[float] = []

    def run(self) -> float:
        """Time the kernel twice; return the reference time over the better one."""
        np = self._np
        for _ in range(2):
            start = time.perf_counter()
            for _ in range(10):
                for m in self._mats:
                    w, v = np.linalg.eigh(m)
                    back = (v * w) @ v.conj().T
                    idx = np.arange(m.shape[0])[::-1]
                    back[np.ix_(idx, idx)].trace()
                acc = {}
                for i in range(3000):
                    acc[i % 61] = acc.get(i % 61, 0) + i
            self.samples.append(time.perf_counter() - start)
        return CALIBRATION_REF_S / min(self.samples[-2:])


def _run_round(ops, clock=time.perf_counter):
    outputs = []
    start = clock()
    for op in ops:
        t0 = clock()
        raw = op.run()
        outputs.append((raw, t0, clock()))
    return outputs, clock() - start


class _Judge:
    """Checks each round's outputs as soon as the round ends.

    It keeps only what the metrics need: per round, the scaled time of
    every elementary operation (sweep rows, verdicts and solves, in round
    order) and the round's duration and speed; counts; and the first
    round's fingerprints and failures.
    """

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.scaled: dict[bool, list[array]] = {True: [], False: []}  # keyed by "traced"
        self.durations: list[float] = []
        self.speeds: list[float] = []
        self.traced: list[bool] = []
        self.failures: list[str] = []
        self.solves = self.undecided = 0
        self._first = None
        self.identical = True
        self.statuses: Counter = Counter()
        self.iterations = 0

    def add(self, outputs, duration: float, traced: bool, speed: float) -> None:
        from symext import UNDECIDED
        from workloads import SolveOp

        first = self._first is None
        latencies, fingerprints = array("d"), []
        for op, (raw, t0, t1) in zip(self.ops, outputs):
            res = op.check(raw, t0, t1)
            self.attempted += res.ops
            self.failed += res.failed
            latencies.extend(res.latencies)
            fingerprints.append(res.fingerprint)
            if isinstance(op, SolveOp) and res.status is not None:
                self.solves += 1
                self.undecided += res.status == UNDECIDED
            if first:
                self.failures.extend(res.failures)
                if res.status is not None:
                    self.statuses[res.status] += 1
                self.iterations += res.iterations
        if first:
            self._first = fingerprints
        self.identical = self.identical and fingerprints == self._first
        self.scaled[traced].append(array("d", (t * speed for t in latencies)))
        self.durations.append(duration)
        self.speeds.append(speed)
        self.traced.append(traced)

    def costs(self, traced: bool) -> list[float]:
        """Each operation's median scaled time over the rounds."""
        return [statistics.median(col) for col in zip(*self.scaled[traced])]

    def fingerprints(self) -> dict:
        from workloads import SweepOp

        return {
            "status_counts": dict(sorted(self.statuses.items())),
            "total_iterations": self.iterations,
            "sweep_csv_sha256": {op.label: fp for op, fp in zip(self.ops, self._first) if isinstance(op, SweepOp)},
            "rounds_identical": self.identical,
        }


def _timed_phase(ops, seconds: float, tracer, calibration, judge: _Judge) -> float:
    """Rounds until ``seconds`` have passed; with a tracer, odd rounds are traced."""
    begin = time.perf_counter()
    while True:
        speed = calibration.run()
        trace_this = tracer is not None and len(judge.durations) % 2 == 1
        if trace_this:
            tracer.install()
        try:
            outputs, duration = _run_round(ops)
        finally:
            if trace_this:
                tracer.uninstall()
        judge.add(outputs, duration, trace_this, speed)
        rounds = len(judge.durations)
        done = time.perf_counter() - begin >= seconds and rounds >= MIN_ROUNDS
        if done and (tracer is None or rounds % 2 == 0):
            return time.perf_counter() - begin


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    values = sorted(values)
    pos = (len(values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _end_to_end(judge: _Judge, setup_samples):
    """End-to-end metrics from each operation's median scaled time."""
    costs = judge.costs(False)
    decided = 1.0 - judge.undecided / judge.solves if judge.solves else 1.0
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(costs) / sum(costs), "1/s"),
        "solve_ms_p50": (_percentile(costs, 50) * 1e3, "ms"),
        "solve_ms_p90": (_percentile(costs, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verified_frac": (1.0 - judge.failed / judge.attempted, "frac"),
        "decided_frac": (decided, "frac"),
    }
    return metrics


# per-function metrics reported from the traced rounds: (span name, with call count)
LAYER_FUNCTIONS = (
    ("cli.main", True),
    ("linalg.DensityMatrix", True),
    ("linalg.partial_trace", True),
    ("linalg.partial_transpose", False),
    ("criteria.tilde_state", False),
    ("criteria.hat_state", False),
    ("criteria.ppt_test", True),
    ("families.bell_state", False),
    ("families.werner_state", False),
    ("families.wootters_concurrence", False),
    ("families.ssa_check", False),
    ("consistency.consistency_verdict", False),
    ("consistency.average_marginals", False),
    ("oracle.project_permutation_invariant", True),
    ("oracle.project_invariant_marginal", False),
    ("oracle.project_psd", True),
    ("oracle.oracle_feasibility", True),
)


def _per_layer(judge: _Judge, tracer):
    """Per-layer figures of the traced rounds, each divided by their number.

    Span times are not scaled.  The overhead compares the scaled
    throughput of the traced and the untraced rounds of the same run.
    """
    from spans import LAYERS

    traced_rate, untraced_rate = (len(c) / sum(c) for c in (judge.costs(True), judge.costs(False)))
    n = sum(judge.traced)
    t_wall = sum(d for d, t in zip(judge.durations, judge.traced) if t) / n

    self_times = {name: value / n for name, value in tracer.self_times().items()}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_times.items():
        layer_self[name.split(".", 1)[0]] += value
    harness = t_wall - tracer.root_time() / n
    iterations = tracer.counters["oracle.iterations"] / n
    metrics = {}
    for name, with_calls in LAYER_FUNCTIONS:
        if with_calls:
            metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count/round")
        metrics[f"{name}.self_s"] = (self_times.get(name, 0.0), "s/round")
    metrics["oracle.perm_avg_terms"] = (tracer.counters["oracle.perm_avg_terms"] / n, "count/round")
    metrics["oracle.psd_flop_est"] = (tracer.counters["oracle.psd_flop_est"] / n, "flop/round")
    metrics["oracle.iterations"] = (iterations, "count/round")
    feas_ms = tracer.inclusive_time("oracle.oracle_feasibility") * 1e3 / n
    metrics["oracle.ms_per_iter"] = (feas_ms / iterations if iterations else 0.0, "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s/round")
        metrics[f"{layer}.errors"] = (tracer.errors[layer] / n, "count/round")
    metrics["harness.self_s"] = (harness, "s/round")
    metrics["trace.wall_s"] = (t_wall, "s/round")
    metrics["trace.unattributed_s"] = (t_wall - harness - sum(layer_self.values()), "s/round")
    metrics["trace.spans"] = (len(tracer.start) / n, "count/round")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
    metrics["trace.overhead_frac"] = ((untraced_rate - traced_rate) / untraced_rate, "frac")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "symext" / "__init__.py").is_file():
        print(f"error: no symext sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from spans import Tracer

    setup_samples = [] if args.trace else _measure_setup(args.workload)
    workloads.warm_up(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        calibration = _Calibration()
        judge = _Judge(ops)
        wall = _timed_phase(ops, args.seconds, tracer, calibration, judge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = _end_to_end(judge, setup_samples)
        consistent = True
    else:
        metrics = _per_layer(judge, tracer)
        consistent = abs(metrics["trace.unattributed_s"][0]) <= 1e-6 * metrics["trace.wall_s"][0]
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    fingerprints = judge.fingerprints()
    correct = judge.failed == 0 and judge.identical and consistent
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "rounds": len(judge.durations),
        "ops_per_round": len(ops),
        "timed_wall_s": wall,
        "round_s": judge.durations,
        "calibration_s": calibration.samples,
        "round_speed": judge.speeds,
        "setup_samples_s": setup_samples,
        "fingerprints": fingerprints,
        "failures": judge.failures,
    }
    result = {
        "correct": correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{suffix}.json").write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
