"""In-memory span tracing of sylvcert, installed from outside the package.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, every
function that one sylvcert module takes from another (plus the named stage
entry points in ``EXTRA_TARGETS``) by a wrapper that records a span: name,
start, end, parent span and operation id.  Functions are swapped in every
sylvcert namespace that holds them, so calls made through ``from x import f``,
through a module attribute (``sio.load_problem``) and within the defining
module are all seen.  Leaf helpers in ``LEAF_HELPERS`` cost about as much as a
span; they are left unwrapped and their time stays in the caller's self time.

Nothing in the package changes: leaving the block restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("numerics", "gate", "regular", "singular", "oracle", "blockalg",
           "roots", "io", "cli")

LEAF_HELPERS = frozenset({"frob", "as_complex_matrix", "require_square", "vec", "unvec"})

# stage entry points called from inside their own module (or by the
# benchmark itself) that the per-module metrics name
EXTRA_TARGETS = (
    ("singular", "solve_uv_report"), ("singular", "particular_solution"),
    ("roots", "block_roots"), ("oracle", "build_operator"),
    ("io", "load_problem"), ("io", "verdict_to_dict"), ("io", "serialize_report"),
    ("cli", "main"),
)

ROOT_SPAN = "bench.operation"


def svd_gflop(rows: int, cols: int) -> float:
    """Operation count of a thin complex SVD giving U1, S and V: the
    Golub-Van Loan real count 14 p q^2 + 8 q^3 (p >= q) times 4 for complex
    arithmetic.  Computed from the shape, not measured."""
    p, q = max(rows, cols), min(rows, cols)
    return 4.0 * (14.0 * p * q * q + 8.0 * q ** 3) / 1e9


class Tracer:
    """Collects spans and the counters read at span boundaries."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, op)
        self._stack: list = []
        self.op = -1
        self.ops = 0
        self.errors: Counter = Counter()
        self._raised: list = []        # exceptions already attributed, this op
        self.lstsq_shapes: list = []   # (op, rows, cols)
        self.uv_flags: Counter = Counter()
        self.report_bytes = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        name, _, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self):
        """Root span of one benchmark operation; spans inside share its id."""
        self.op += 1
        self.ops += 1
        self._raised = []
        index = self._open(ROOT_SPAN)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter())

    def _observe(self, name: str, args, result) -> None:
        if name == "numerics.lstsq_solve":
            rows, cols = args[0].shape
            self.lstsq_shapes.append((self.op, rows, cols))
        elif name == "singular.solve_uv_report":
            self.uv_flags["marginal"] += bool(result.marginal)
            self.uv_flags["near_cutoff"] += bool(result.near_cutoff)
        elif name == "io.serialize_report":
            self.report_bytes += len(result)

    def wrap(self, fn):
        name = f"{fn.__module__.removeprefix('sylvcert.')}.{fn.__name__}"
        module = name.split(".")[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not any(exc is seen for seen in tracer._raised):
                    tracer._raised.append(exc)
                    tracer.errors[module] += 1
                raise
            finally:
                tracer._close(index, start, time.perf_counter())
            tracer._observe(name, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        package = sys.modules["sylvcert"]
        modules = [sys.modules[f"sylvcert.{m}"] for m in MODULES]
        targets = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__name__ not in LEAF_HELPERS
                        and value.__module__.startswith("sylvcert.")
                        and value.__module__ != module.__name__):
                    targets[value] = None
        for mod_name, attr in EXTRA_TARGETS:
            targets[getattr(sys.modules[f"sylvcert.{mod_name}"], attr)] = None
        wrappers = {fn: self.wrap(fn) for fn in targets}

        saved = []
        for namespace in [package, *modules]:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    saved.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[value])
        try:
            yield self
        finally:
            for namespace, attr, value in saved:
                setattr(namespace, attr, value)

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-function and per-module totals over all recorded spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            duration = end - start
            inclusive[name] += duration
            self_time[name] += duration - child_time[index]
            calls[name] += 1
        module_self = defaultdict(float)
        for name, value in self_time.items():
            module_self[name.split(".")[0]] += value
        return {"inclusive_s": dict(inclusive), "self_s": dict(self_time),
                "calls": dict(calls), "module_self_s": dict(module_self)}
