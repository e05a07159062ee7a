"""Span tracing installed from outside the program.

``Tracer.install`` wraps chosen public callables of the ``symext`` modules
and rebinds each wrapped name in every ``symext`` module that imported it,
so calls between layers pass through the wrappers.  ``uninstall`` puts the
originals back; an untraced run never installs anything.

Each wrapper records one span (name, start, end, parent) in in-memory
column arrays, counts calls, and counts exceptions at the innermost span
they leave.  A span's self time is its duration minus the time its child
spans cover, so the self times of all spans plus the time outside any span
add up to the traced wall time.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "linalg", "criteria", "families", "consistency", "oracle")

# Public entry points per layer.  Tiny helpers such as ``hermitize`` stay
# unwrapped: a wrapper costs about a microsecond, as much as their work.
WRAPPED = {
    "cli": ("main",),
    "linalg": (
        "DensityMatrix",
        "partial_trace",
        "partial_transpose",
        "tensor_product",
        "trace_distance",
        "trace_norm",
        "hermitian_eigs",
        "von_neumann_entropy",
        "permutation_operator",
        "symmetric_projector",
        "random_density",
    ),
    "criteria": (
        "tilde_state",
        "hat_state",
        "ppt_test",
        "symmetric_extension_verdict",
        "bosonic_extension_verdict",
        "definetti_gap",
        "generalized_hat",
    ),
    "families": (
        "bell_state",
        "werner_state",
        "wootters_concurrence",
        "ssa_check",
        "ckw_check",
        "bell_polytope_condition",
        "bell_exact_2ext",
        "bell_ssa",
    ),
    "consistency": ("consistency_verdict", "average_marginals", "a_marginal_spread", "werner_pentagon"),
    "oracle": (
        "oracle_feasibility",
        "project_psd",
        "project_permutation_invariant",
        "project_invariant_marginal",
        "project_marginal_affine",
    ),
}

NO_PARENT = -1


def _perm_terms(args, kwargs, result):
    # group average over the B factors: k! conjugations, k = len(dims) - 1
    dims = args[1] if len(args) > 1 else kwargs["dims"]
    return "oracle.perm_avg_terms", math.factorial(len(tuple(dims)) - 1)


def _psd_flops(args, kwargs, result):
    # dense Hermitian eigensolve: computed as side^3, not measured
    m = args[0] if args else kwargs["m"]
    return "oracle.psd_flop_est", m.shape[0] ** 3


def _iterations(args, kwargs, result):
    return "oracle.iterations", result.iterations


COUNTERS = {
    "oracle.project_permutation_invariant": _perm_terms,
    "oracle.project_psd": _psd_flops,
    "oracle.oracle_feasibility": _iterations,
}


class Tracer:
    """Holds the spans and counters of one traced run in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped so that each call records one span."""
        layer = name.split(".", 1)[0]
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else NO_PARENT)
            self.end.append(0.0)
            stack.append(idx)
            self.calls[name] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if not getattr(err, "_bench_counted", False):
                    self.errors[layer] += 1
                    try:
                        err._bench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                self.counters[key] += amount
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every name in ``WRAPPED`` wherever a ``symext`` module binds it."""
        import symext  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items() if n == "symext" or n.startswith("symext.")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"symext.{layer}"]
            for name in names:
                original = getattr(home, name)
                key = f"{layer}.{name}"
                if isinstance(original, type):
                    init = original.__init__
                    self._saved.append((original, "__init__", init))
                    original.__init__ = self.span(key, init, COUNTERS.get(key))
                    continue
                wrapped = self.span(key, original, COUNTERS.get(key))
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, float] = defaultdict(float)
        for i in range(n):
            totals[self.names[self.name_id[i]]] += (self.end[i] - self.start[i]) - child[i]
        return totals

    def root_time(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] == NO_PARENT
        )

    def inclusive_time(self, name: str) -> float:
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.name_id[i] == nid)

    def write(self, path) -> None:
        """Write the spans as column arrays to a compressed ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
