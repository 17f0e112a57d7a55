"""Command-line surface over JSON files.

Every command prints a single JSON document
``{"command": ..., "status": ..., "payload": ...}`` on stdout and uses the
exit code contract 0 = ok, 1 = violation (a mathematical check failed),
2 = error (bad input or IO).  Diagnostics go to stderr.  Randomized
commands require an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import mateq, serialize, so3c, solver
from .linalg import EXACT, GaussianRational, IM, Mat3
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


def verify_canon(corrupt: dict | None = None):
    """Exact verification of the canonical solution list.

    Checks, per family representative: exactly zero residual, empty
    PostLie and Rota-Baxter violation lists; then pairwise non-congruence
    through the invariant prefilter.  ``corrupt`` is a test-only hook
    mapping a family-kind name to a replacement matrix.
    """
    corrupt = corrupt or {}
    tags = _verify_tags()
    entries = []
    ok = True
    matrices = []
    for tag in tags:
        A = mateq.representative(tag)
        if tag.kind.value in corrupt:
            A = corrupt[tag.kind.value]
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
        matrices.append((tag, A))

    pairs_checked = 0
    pairwise_ok = True
    separations = []
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            verdict = mateq.invariant_prefilter(matrices[i][1], matrices[j][1], 1e-8)
            pairs_checked += 1
            if verdict is None:
                pairwise_ok = False
                separations.append(
                    {
                        "pair": [matrices[i][0].kind.value, matrices[j][0].kind.value],
                        "separating_invariant": None,
                    }
                )
    ok = ok and pairwise_ok
    payload = {
        "families": entries,
        "pairs_checked": pairs_checked,
        "pairwise_noncongruent": pairwise_ok,
    }
    if separations:
        payload["undistinguished_pairs"] = separations
    return (OK if ok else VIOLATION), payload


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
        report = solver.multistart(
            args.starts,
            args.seed,
            radius=args.radius,
            max_iter=args.max_iter,
            tol=args.tol,
        )
    except mateq.Inconclusive as exc:
        return VIOLATION, {"error": "Inconclusive", "detail": str(exc)}
    return OK, serialize.survey_to_json(report)


def cmd_random_so3(args):
    sample = so3c.random_so3(args.seed)
    T = sample.matrix
    gram_defect = (T.transpose() @ T - Mat3.identity(exact=False)).frobenius_norm()
    det_defect = abs(complex(T.det()) - 1)
    return OK, {
        "matrix": serialize.matrix_to_json(T),
        "orthogonality_residual": gram_defect,
        "det_residual": det_defect,
        "verified_tol": sample.tol,
    }


def cmd_adjoint_rep(args):
    P = serialize.mat2_from_json(_load_json(args.file))
    T = so3c.adjoint_rep(P)
    if T.kind == EXACT:
        gram_defect = 0.0 if so3c.is_special_orthogonal(T) else float("nan")
    else:
        gram_defect = (
            T.transpose() @ T - Mat3.identity(exact=False)
        ).frobenius_norm()
    return OK, {
        "matrix": serialize.matrix_to_json(T),
        "orthogonality_residual": gram_defect,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--tol", type=float, default=solver.DEFAULT_NEWTON_TOL)
    p.add_argument("--max-iter", type=int, default=solver.DEFAULT_MAX_ITER)

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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = _HANDLERS[args.command](args)
    except (OSError, json.JSONDecodeError, ValueError, so3c.Singular) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, payload = ERROR, {"message": str(exc)}
    report = {"command": args.command, "status": _STATUS[code], "payload": payload}
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
