"""Spans and counters around the program's public functions.

The wrappers are installed from the benchmark's files: every binding of a
traced function in the ``postlie_sl2`` modules is replaced, including the
names other modules bound with ``from ... import`` (``cli.check_postlie``,
the re-exports in ``postlie_sl2`` itself), and every traced method of
``Mat3`` and ``GaussianRational``.  Spans are kept in memory; ``write``
puts them in a JSON file once the run has ended.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: traced public functions, named "<module>.<attribute>"
FUNCTIONS = (
    "sl2.check_postlie",
    "sl2.check_rota_baxter",
    "sl2.circ_from_matrix",
    "mateq.residual",
    "mateq.classify",
    "mateq.congruence_test",
    "so3c.is_special_orthogonal",
    "symcanon.classify_symmetric",
    "solver.multistart",
    "solver.newton_solve",
    "solver.residual_jacobian",
    "cli.main",
)
#: exact and floating Mat3 operations, split by the matrix's kind
MAT3_METHODS = ("__matmul__", "adjugate", "det", "rank", "char_poly")
#: GaussianRational products are counted, not timed: they are too many
#: and too short for a span each
GR_MUL_METHODS = ("__mul__", "__rmul__")


class Tracer:
    """Installs the wrappers and keeps the spans and counters they record.

    A span is ``(name index, start, end, parent span index, item)``; the
    item index is shared by all spans of one benchmark item.
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.item = 0
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _span(self, name_of, fn, after=None):
        ids = {}

        def wrapper(*args, **kwargs):
            name = name_of(args)
            nid = ids.get(name)
            if nid is None:
                nid = ids[name] = self._name_id(name)
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1][2] if self.stack else -1
            frame = [perf_counter(), 0.0, index]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                duration = end - frame[0]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self.stack:
                    self.stack[-1][1] += duration
                self.spans[index] = (nid, frame[0], end, parent, self.item)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def _after_verdict(self, verdict):
        self.counts[f"mateq.verdict.{verdict.status}"] += 1

    def _after_solve(self, result):
        self.counts["solver.newton_iterations"] += result.iterations
        self.counts["solver.converged"] += int(result.converged)

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == prefix or n.startswith(prefix + "."))
        ]

    def _rebind(self, original, wrapper):
        """Replace every module-level binding of ``original``."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        had = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner)[attr] if had else None))
        setattr(owner, attr, wrapper)

    def install(self):
        pkg = self.package
        after = {
            "mateq.congruence_test": self._after_verdict,
            "solver.newton_solve": self._after_solve,
        }
        for name in FUNCTIONS:
            module, attr = name.split(".")
            fn = getattr(getattr(pkg, module), attr)
            self._rebind(fn, self._span(lambda args, n=name: n, fn, after.get(name)))
        for attr in pkg.serialize.__all__:
            fn = getattr(pkg.serialize, attr)
            self._rebind(fn, self._span(lambda args: "serialize", fn))
        Mat3 = pkg.linalg.Mat3
        exact = pkg.linalg.EXACT
        for attr in MAT3_METHODS:
            fn = getattr(Mat3, attr)
            self._patch(
                Mat3,
                attr,
                self._span(
                    lambda args: "linalg.mat3_exact" if args[0].kind == exact else "linalg.mat3_float",
                    fn,
                ),
            )
        GR = pkg.linalg.GaussianRational
        for attr in GR_MUL_METHODS:
            self._patch(GR, attr, self._count("linalg.gr_mul", getattr(GR, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, names, process_s: float, overhead_pct: float) -> dict:
        """Value of each named per-layer metric."""
        out = {}
        for metric in names:
            layer, _, part = metric.rpartition(".")
            if part == "calls":
                value = self.calls[layer]
            elif part == "self_s":
                value = self.self_s[layer]
            elif metric.startswith("mateq.verdict.") or metric == "solver.newton_iterations":
                value = self.counts[metric]
            elif metric == "solver.converged_ratio":
                solves = self.calls["solver.newton_solve"]
                value = self.counts["solver.converged"] / solves if solves else 0.0
            elif metric == "cli.process_s":
                value = process_s
            elif metric == "trace.spans":
                value = len(self.spans)
            elif metric == "trace.overhead_pct":
                value = overhead_pct
            else:
                raise KeyError(f"no per-layer metric {metric!r}")
            out[metric] = value
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
