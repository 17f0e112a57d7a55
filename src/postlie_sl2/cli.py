"""Command-line surface over JSON files.

Every command prints a single JSON document
``{"command": ..., "status": ..., "payload": ...}`` on stdout and uses the
exit code contract 0 = ok, 1 = violation (a mathematical check failed),
2 = error (bad input or IO, a malformed command line included, or a
result holding a number that is not finite, which JSON cannot carry; only
``--help`` prints usage, with exit code 0).  Diagnostics go to stderr.
Randomized commands require an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import mateq, serialize, so3c, solver
from .linalg import GaussianRational, IM
from .sl2 import check_postlie, check_rota_baxter, circ_from_matrix

OK, VIOLATION, ERROR = 0, 1, 2
_STATUS = {OK: "ok", VIOLATION: "violation", ERROR: "error"}

#: KFamily parameters sampled when verifying the canonical list
VERIFY_K_SAMPLES = (
    GaussianRational(0),
    GaussianRational(-1),
    GaussianRational(1),
    IM,
    GaussianRational(5),
)


def _verify_tags():
    tags = [
        mateq.FamilyTag.zero(),
        mateq.FamilyTag.minus_identity(),
        mateq.FamilyTag.trace_minus_2(),
        mateq.FamilyTag.non_sym_rank1(),
    ]
    tags.extend(mateq.FamilyTag.k_family(k) for k in VERIFY_K_SAMPLES)
    return tags


def verify_canon():
    """Exact verification of the canonical solution list.

    Checks, per family representative: exactly zero residual, empty
    PostLie and Rota-Baxter violation lists; then pairwise non-congruence
    from exact ``classify`` tags: a pair is distinguished when both
    matrices classify and their tags differ.  That is sound because the
    tag is read off congruence invariants only (rank(A), rank(A'A),
    rank(sym(A) + I/2) and tr(A)).
    """
    tags = _verify_tags()
    entries = []
    ok = True
    classified = []
    for tag in tags:
        A = mateq.representative(tag)
        res = mateq.residual(A)
        exactly_zero = res.is_zero()
        postlie = check_postlie(circ_from_matrix(A))
        rota = check_rota_baxter(A)
        entry = {
            "tag": tag.kind.value,
            "residual_norm": "0" if exactly_zero else repr(res.frobenius_norm()),
            "residual_exactly_zero": exactly_zero,
            "postlie_violations": len(postlie),
            "rota_baxter_violations": len(rota),
        }
        if tag.k is not None:
            entry["k"] = serialize.scalar_to_json(tag.k)
        failed = [
            name
            for name, bad in (
                ("matrix-equation", not exactly_zero),
                ("postlie", bool(postlie)),
                ("rota-baxter", bool(rota)),
            )
            if bad
        ]
        if failed:
            ok = False
            entry["failed"] = failed
        entries.append(entry)
        try:
            found = mateq.classify(A).tag
        except (mateq.NotASolution, mateq.Inconclusive):
            found = None
        classified.append((tag, found))

    pairs = list(itertools.combinations(classified, 2))
    separations = [
        {"pair": [tag_a.kind.value, tag_b.kind.value], "separating_invariant": None}
        for (tag_a, found_a), (tag_b, found_b) in pairs
        if found_a is None or found_b is None or found_a == found_b
    ]
    pairwise_ok = not separations
    ok = ok and pairwise_ok
    payload = {
        "families": entries,
        "pairs_checked": len(pairs),
        "pairwise_noncongruent": pairwise_ok,
    }
    if separations:
        payload["undistinguished_pairs"] = separations
    return (OK if ok else VIOLATION), payload


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def cmd_verify_canon(args):
    return verify_canon()


def cmd_classify(args):
    A = serialize.mat3_from_json(_load_json(args.file))
    try:
        report = mateq.classify(A)
    except mateq.NotASolution as exc:
        return VIOLATION, {"error": "NotASolution", "detail": str(exc)}
    except mateq.Inconclusive as exc:
        return VIOLATION, {"error": "Inconclusive", "detail": str(exc)}
    return OK, serialize.classification_report_to_json(report)


def cmd_postlie_check(args):
    c = serialize.structure_constants_from_json(_load_json(args.file))
    violations = check_postlie(c)
    payload = {"violations": serialize.violations_to_json(violations)}
    return (OK if not violations else VIOLATION), payload


def cmd_orbit_test(args):
    A = serialize.mat3_from_json(_load_json(args.file_a))
    B = serialize.mat3_from_json(_load_json(args.file_b))
    verdict = mateq.congruence_test(A, B, budget=args.budget, seed=args.seed)
    return OK, serialize.verdict_to_json(verdict)


def cmd_search(args):
    try:
        report = solver.multistart(args.starts, args.seed, radius=args.radius)
    except mateq.Inconclusive as exc:
        return VIOLATION, {"error": "Inconclusive", "detail": str(exc)}
    return OK, serialize.survey_to_json(report)


def cmd_random_so3(args):
    T = so3c.random_so3(args.seed)
    gram_defect, det_defect = so3c.membership_defects(T)
    return OK, {
        "matrix": serialize.matrix_to_json(T),
        "orthogonality_residual": gram_defect,
        "det_residual": det_defect,
        "verified_tol": so3c.MEMBERSHIP_TOL,
    }


def cmd_adjoint_rep(args):
    P = serialize.mat2_from_json(_load_json(args.file))
    T = so3c.adjoint_rep(P)
    return OK, {
        "matrix": serialize.matrix_to_json(T),
        "orthogonality_residual": so3c.membership_defects(T)[0],
    }


class _UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    # raise instead of printing usage and exiting, so that a bad command
    # line still gives one JSON document; --help still exits 0
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="postlie-sl2",
        description="Verify, classify and search solutions of the 3x3 matrix "
        "equation behind PostLie structures on sl(2,C).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-canon", help="exact verification of the canonical list")

    p = sub.add_parser("classify", help="classify a solution matrix from a JSON file")
    p.add_argument("file")

    p = sub.add_parser("postlie-check", help="check the PostLie axioms of a product")
    p.add_argument("file")

    p = sub.add_parser("orbit-test", help="decide SO(3,C) congruence of two matrices")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--budget", type=int, default=mateq.DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("search", help="multistart Newton survey of the solution set")
    p.add_argument("--starts", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--radius", type=float, default=solver.DEFAULT_RADIUS)

    p = sub.add_parser("random-so3", help="seeded random SO(3,C) element")
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("adjoint-rep", help="adjoint representation of a 2x2 matrix")
    p.add_argument("file")

    return parser


_HANDLERS = {
    "verify-canon": cmd_verify_canon,
    "classify": cmd_classify,
    "postlie-check": cmd_postlie_check,
    "orbit-test": cmd_orbit_test,
    "search": cmd_search,
    "random-so3": cmd_random_so3,
    "adjoint-rep": cmd_adjoint_rep,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _HANDLERS else None
    try:
        args = _build_parser().parse_args(argv)
        code, payload = _HANDLERS[command](args)
        # JSON has no NaN or Infinity: a payload number that is not finite
        # raises ValueError here, which gives an error document
        json.dumps(payload, allow_nan=False)
    except (_UsageError, OSError, json.JSONDecodeError, ValueError, so3c.Singular) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, payload = ERROR, {"message": str(exc)}
    report = {"command": command, "status": _STATUS[code], "payload": payload}
    try:
        print(json.dumps(report), flush=True)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point stdout at devnull
        # so that the flush at exit writes nothing, and keep the exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
