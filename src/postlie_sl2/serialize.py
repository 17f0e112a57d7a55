"""JSON encodings shared by the CLI and the file interfaces.

Scalars: exact values are ``{"re": "p/q", "im": "p/q"}`` with signed
decimal integer strings, floating values are two-element arrays
``[re, im]``.  Matrices are nested arrays of scalars; a single matrix must
use one encoding throughout, and that choice decides exact versus floating
processing downstream.
"""

from __future__ import annotations

from .linalg import GaussianRational, Mat2, Mat3
from .sl2 import IdentityViolation, StructureConstants

__all__ = [
    "scalar_to_json",
    "scalar_from_json",
    "matrix_to_json",
    "mat3_from_json",
    "mat2_from_json",
    "structure_constants_to_json",
    "structure_constants_from_json",
    "violations_to_json",
    "classification_report_to_json",
    "verdict_to_json",
    "survey_to_json",
]


def scalar_to_json(x):
    if isinstance(x, GaussianRational):
        return {
            "re": f"{x.re.numerator}/{x.re.denominator}",
            "im": f"{x.im.numerator}/{x.im.denominator}",
        }
    z = complex(x)
    return [z.real, z.imag]


def _is_number(x) -> bool:
    # a JSON boolean decodes to a bool, which is an int but no number here
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def scalar_from_json(obj):
    if isinstance(obj, dict):
        try:
            return GaussianRational(str(obj["re"]), str(obj["im"]))
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad exact scalar {obj!r}") from exc
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_number, obj)):
        re, im = obj
    elif _is_number(obj):
        re, im = obj, 0
    else:
        raise ValueError(f"bad scalar encoding {obj!r}")
    try:
        return complex(float(re), float(im))
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"scalar {obj!r} exceeds the floating range") from exc


def matrix_to_json(M):
    return [[scalar_to_json(x) for x in row] for row in M.rows]


def _nested(data, n: int, depth: int) -> bool:
    """Whether ``data`` is lists of length ``n``, ``depth`` levels deep."""
    return not depth or isinstance(data, list) and len(data) == n and all(
        _nested(x, n, depth - 1) for x in data
    )


def _entries_from_json(data, n: int):
    if not _nested(data, n, 2):
        raise ValueError(f"matrix must be a {n}x{n} nested array")
    return [[scalar_from_json(x) for x in row] for row in data]


def mat3_from_json(data) -> Mat3:
    return Mat3(_entries_from_json(data, 3))


def mat2_from_json(data) -> Mat2:
    return Mat2(_entries_from_json(data, 2))


def structure_constants_to_json(c: StructureConstants):
    e = [scalar_to_json(x) for x in c.entries]
    return {"c": [[e[n : n + 3] for n in range(i, i + 9, 3)] for i in range(0, 27, 9)]}


def structure_constants_from_json(data) -> StructureConstants:
    if not isinstance(data, dict) or "c" not in data:
        raise ValueError('structure constants need a {"c": ...} object')
    if not _nested(data["c"], 3, 3):
        raise ValueError("structure constants need a 3x3x3 nested array")
    return StructureConstants([[[scalar_from_json(x) for x in v] for v in row] for row in data["c"]])


def violations_to_json(violations: list[IdentityViolation]):
    return [
        {
            "identity": v.identity,
            "indices": list(v.indices),
            "residual": [scalar_to_json(x) for x in v.residual.coords],
        }
        for v in violations
    ]


def classification_report_to_json(report):
    payload = {
        "tag": report.tag.kind.value,
        "residual_norm": report.residual_norm,
        "invariants": [
            [name, scalar_to_json(v) if not isinstance(v, int) else v]
            for name, v in report.invariants_used
        ],
        "margins": [[name, sigma, threshold] for name, sigma, threshold in report.margins],
    }
    if report.tag.k is not None:
        payload["k"] = scalar_to_json(report.tag.k)
    if report.witness is not None:
        payload["witness"] = matrix_to_json(report.witness)
    return payload


def verdict_to_json(verdict):
    payload = {"verdict": verdict.status}
    if verdict.witness is not None:
        payload["witness"] = matrix_to_json(verdict.witness)
    if verdict.separating_invariant is not None:
        payload["separating_invariant"] = verdict.separating_invariant
    if verdict.attempts is not None:
        payload["attempts"] = verdict.attempts
    dims, decided = verdict.nullities
    payload["nullities"] = {"dims": list(dims), "decided": list(decided)}
    return payload


def survey_to_json(report):
    return {
        "starts": report.starts,
        "converged": report.converged_count,
        "family_histogram": dict(sorted(report.family_histogram.items())),
        "k_values": [[z.real, z.imag] for z in report.k_values],
        "failures": report.failures,
        "iterations": report.iterations,
        "regularised_steps": report.regularised_steps,
        "stalls": report.stalls,
        "iteration_histogram": {
            str(steps): starts for steps, starts in report.iteration_histogram.items()
        },
    }
