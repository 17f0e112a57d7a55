"""One workload in a fresh interpreter; prints its result as one JSON line.

``run.py`` starts this file with ``PYTHONPATH`` set to the checkout's
``src`` and numpy's BLAS held to one thread.  Inputs are made from the
seed, a round at a time, outside the item clocks.  Every round of
``exact-certify``, ``survey`` and ``orbit`` holds fresh inputs: witness
searches and exact arithmetic on large entries are heavy-tailed, and a run
that repeated a few inputs would cost what those inputs happen to cost.
Each item's time covers the program calls only, and its output is checked
against the reference before the next item starts.  With ``--trace 1``
the same rounds run untraced, traced and untraced again, and the
per-layer metrics come from the traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np
import postlie_sl2 as P
import postlie_sl2.cli  # noqa: F401  (not imported by the package itself)
from postlie_sl2.linalg import GaussianRational, Mat3

import inputs
import reference as R
import spec
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / ".bench_out"
#: rounds in the untraced and the traced pass of a --trace 1 run
TRACE_ROUNDS = {"exact-certify": 1, "survey": 1, "orbit": 20, "cli": 1}
#: relative tolerance on floating parameters (k, canonical-form eigenvalues)
PARAM_TOL = 1e-6


def exact_matrix(A) -> Mat3:
    return Mat3([[GaussianRational(re, im) for re, im in row] for row in A])


def pair(x):
    return (Fraction(x.re), Fraction(x.im))


def as_complex(x) -> complex:
    # floating classify may hand k back as a GaussianRational
    return x.to_complex() if isinstance(x, GaussianRational) else complex(x)


class ExactCertify:
    """Exact certificates: residual, classify, PostLie and Rota-Baxter."""

    def __init__(self, seed, workdir):
        self.seed = seed

    def round(self, index):
        items = inputs.exact_certify_round(self.seed, index)
        for item in items:
            item["M"] = exact_matrix(item["A"])
            item["label"] = f"{item['family'] or 'non-solution'}/{item['height']}"
            item["known_fault"] = False
        return items

    @staticmethod
    def run(item):
        A = item["M"]
        res = P.mateq.residual(A)
        try:
            report = P.mateq.classify(A)
        except P.mateq.NotASolution as exc:
            report = exc
        postlie = P.sl2.check_postlie(P.sl2.circ_from_matrix(A))
        rota = P.sl2.check_rota_baxter(A)
        return res, report, postlie, rota

    @staticmethod
    def check(item, out):
        res, report, postlie, rota = out
        if tuple(tuple(pair(x) for x in row) for row in res.rows) != item["residual"]:
            return False, 0
        if not item["solution"]:
            # check_postlie is empty exactly when the residual is zero, and
            # check_rota_baxter agrees with it
            ok = isinstance(report, P.mateq.NotASolution) and bool(postlie) and bool(rota)
            return ok, 0
        ok = (
            isinstance(report, P.mateq.ClassificationReport)
            and report.tag.kind.value == item["family"]
            and not postlie
            and not rota
        )
        if ok and item["family"] == "KFamily":
            ok = pair(report.tag.k) == item["k"] == item["trace_plus_1"]
        return ok, int(ok)


class Survey:
    """Multistart Newton surveys, one per item."""

    def __init__(self, seed, workdir):
        self.seed = seed

    def round(self, index):
        return [
            dict(item, label=f"radius={item['radius']:g}", known_fault=False)
            for item in inputs.survey_round(self.seed, index)
        ]

    @staticmethod
    def run(item):
        return P.solver.multistart(item["starts"], item["seed"], radius=item["radius"])

    @staticmethod
    def check(item, report):
        hist = report.family_histogram
        ok = (
            report.starts == item["starts"]
            and report.converged_count + report.failures == report.starts
            and sum(hist.values()) == report.converged_count
            and set(hist) <= set(R.FAMILIES)
            and len(report.k_values) == hist.get("KFamily", 0)
            # acceptance criterion 7: at least 60% convergence at radius 2
            and (item["radius"] != 2.0 or report.converged_count >= 0.6 * report.starts)
        )
        return ok, report.converged_count if ok else 0


class Orbit:
    """Floating decisions: congruence, classify with witness, symmetric
    canonical forms and SO(3,C) membership."""

    def __init__(self, seed, workdir):
        self.seed = seed

    def round(self, index):
        items = inputs.orbit_round(self.seed, index)
        for item in items:
            for key in ("A", "B", "S", "T"):
                if key in item:
                    item["m" + key] = Mat3.from_numpy(item[key])
        return items

    @staticmethod
    def run(item):
        op = item["op"]
        if op == "congruence_test":
            return P.mateq.congruence_test(item["mA"], item["mB"])
        if op == "classify_witness":
            return P.mateq.classify(item["mB"], find_witness=True)
        if op == "classify_symmetric":
            return P.symcanon.classify_symmetric(item["mS"])
        return P.so3c.is_special_orthogonal(item["mT"])

    @staticmethod
    def check(item, out):
        op = item["op"]
        # the witness search is one-sided: "unknown" and a missing witness
        # are honest answers, "not_congruent" on a congruent pair is wrong
        if op == "congruence_test":
            if out.status == "unknown":
                return True, 0
            if out.status != item["expect"]:
                return False, 0
            if out.status != "congruent":
                return True, 0
            ok = R.witness_ok(out.witness.to_numpy(), item["A"], item["B"])
            return ok, int(ok)
        if op == "classify_witness":
            B, family = item["B"], item["family"]
            if out.tag.kind.value != family:
                return False, 0
            k = 0j
            if family == "KFamily":
                k = as_complex(out.tag.k)
                if not (R.close(k, item["k"], PARAM_TOL) and R.close(k, B.trace() + 1, PARAM_TOL)):
                    return False, 0
            if out.witness is None:
                return True, 0
            ok = R.witness_ok(out.witness.to_numpy(), R.canonical_float(family, k), B)
            return ok, int(ok)
        if op == "classify_symmetric":
            # the form of sym(T'AT) = T' sym(A) T is the form of sym(A)
            name, params = R.expected_sym_form(item["family"], item["k"])
            if out.kind.value != name:
                return False, 0
            left = [as_complex(p) for p in out.params]
            for want in params:
                hit = next((z for z in left if R.close(z, want, PARAM_TOL)), None)
                if hit is None:
                    return False, 0
                left.remove(hit)
            return True, 0
        return out is item["expect"], 0


class Cli:
    """One ``postlie-sl2`` process per item, on files the benchmark writes."""

    def __init__(self, seed, workdir):
        data = inputs.cli_round(seed)
        workdir.mkdir(parents=True, exist_ok=True)

        def write(name, obj):
            path = workdir / name
            path.write_text(json.dumps(obj), encoding="utf-8")
            return str(path)

        exact = data["classify_exact"]
        floating = data["classify_float"]
        orbit = data["orbit"]
        constants = R.circ_constants(data["postlie"]["A"])
        self.orbit = orbit
        self.items = [
            {"label": "verify-canon", "argv": ["verify-canon"]},
            {"label": "classify-exact", "argv": ["classify", write("exact.json", inputs.matrix_json(exact["A"]))],
             "family": "KFamily", "k": inputs.scalar_json(exact["k"])},
            {"label": "classify-float", "argv": ["classify", write("float.json", inputs.matrix_json(floating["A"]))],
             "family": floating["family"]},
            {"label": "orbit-test", "argv": ["orbit-test", write("a.json", inputs.matrix_json(orbit["A"])),
                                             write("b.json", inputs.matrix_json(orbit["B"])),
                                             "--seed", str(orbit["seed"])]},
            {"label": "postlie-check", "argv": ["postlie-check", write("postlie.json", {
                "c": [[[inputs.scalar_json(x) for x in v] for v in row] for row in constants]})]},
        ]
        for item in self.items:
            item["known_fault"] = False

    def round(self, index):
        return self.items

    @staticmethod
    def run(item):
        proc = subprocess.run(
            [sys.executable, "-m", "postlie_sl2", *item["argv"]],
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, item, out):
        code, stdout = out
        if code != 0:
            return False, 0
        doc = json.loads(stdout.strip().splitlines()[-1])
        if doc["command"] != item["argv"][0] or doc["status"] != "ok":
            return False, 0
        payload = doc["payload"]
        label = item["label"]
        if label == "verify-canon":
            families = payload["families"]
            ok = payload["pairwise_noncongruent"] and all(
                f["residual_exactly_zero"] and not f["postlie_violations"]
                and not f["rota_baxter_violations"]
                for f in families
            )
            return ok, len(families) if ok else 0
        if label.startswith("classify"):
            ok = payload["tag"] == item["family"] and ("k" not in item or payload["k"] == item["k"])
            return ok, int(ok)
        if label == "orbit-test":
            if payload["verdict"] != "congruent":
                return payload["verdict"] == "unknown", 0
            T = np.array([[complex(*x) for x in row] for row in payload["witness"]])
            ok = R.witness_ok(T, self.orbit["A"], self.orbit["B"])
            return ok, int(ok)
        ok = payload["violations"] == []
        return ok, int(ok)


WORKLOADS = {"exact-certify": ExactCertify, "survey": Survey, "orbit": Orbit, "cli": Cli}


class Tally:
    """Attempted, failed and unexpected failures, with per-item times."""

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def record(self, item, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not item["known_fault"]:
                self.unexpected.append(item["label"])


def run_item(workload, item, tally):
    """Time the program calls of one item and check the output.  Returns
    the item's verified count."""
    t0 = perf_counter()
    try:
        out = workload.run(item)
    except Exception as exc:  # a raising item is a failed operation
        tally.times.append(perf_counter() - t0)
        print(f"item {item['label']} raised {exc!r}", file=sys.stderr)
        tally.record(item, False)
        return 0
    tally.times.append(perf_counter() - t0)
    try:
        ok, found = workload.check(item, out)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        print(f"item {item['label']} gave malformed output: {exc!r}", file=sys.stderr)
        ok, found = False, 0
    tally.record(item, ok)
    return found


def timed(workload, seconds: float, child_rss: bool):
    tally = Tally()
    found = 0
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        for item in workload.round(index):
            n = run_item(workload, item, tally)
            if index == 0:
                found += n
        index += 1
    who = resource.RUSAGE_CHILDREN if child_rss else resource.RUSAGE_SELF
    times = tally.times
    metrics = {
        "items_per_s": len(times) / sum(times),
        "item_ms_p50": 1e3 * statistics.median(times),
        "item_ms_p90": 1e3 * statistics.quantiles(times, n=10)[-1],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "verified_found": found,
    }
    return tally, metrics


def in_process_cli(item):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = P.cli.main(item["argv"])
    return code, buf.getvalue()


def traced(workload, name: str, spans_path: Path):
    """An untraced pass, a traced pass and a second untraced pass over the
    same rounds; the overhead compares the traced pass with the mean of the
    two untraced ones."""
    items = [item for r in range(TRACE_ROUNDS[name]) for item in workload.round(r)]
    tally = Tally()

    def run_pass(tracer=None):
        mark = len(tally.times)
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            run_item(workload, item, tally)
        return sum(tally.times[mark:])

    process_s = 0.0
    if name == "cli":
        # the process cost: subprocess wall time minus in-process cli.main
        process_s = run_pass()
        workload.run = in_process_cli
    untraced_s = run_pass()
    tracer = tracing.Tracer(P)
    tracer.install()
    try:
        traced_s = run_pass(tracer)
    finally:
        tracer.uninstall()
    untraced_s = (untraced_s + run_pass()) / 2
    if name == "cli":
        process_s -= untraced_s
    tracer.write(spans_path)
    overhead = 100.0 * (traced_s / untraced_s - 1.0)
    return tally, tracer.metrics(spec.units("per_layer"), process_s, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = Path(P.__file__).resolve().parent.parent
    if src != ROOT / "src":
        print(f"postlie_sl2 imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    workdir = OUTDIR / f"work-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        gc.collect()
        if args.trace:
            spans = OUTDIR / f"spans-{args.workload}-seed{args.seed}.json"
            tally, metrics = traced(workload, args.workload, spans)
        else:
            tally, metrics = timed(workload, args.seconds, child_rss=args.workload == "cli")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = spec.units("per_layer" if args.trace else "end_to_end")
    for label in sorted(set(tally.unexpected)):
        print(f"unexpected failure: {label} x{tally.unexpected.count(label)}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
