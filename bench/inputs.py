"""Seeded inputs for the four workloads, made apart from the program.

Every input is built by the benchmark's own code in ``reference``: exact
SO(3,C) elements by an exact Cayley transform over Gaussian rationals,
floating ones by a numpy Cayley transform.  The expected answer of each
item is known from how it was built.  A round is a list of items of a
fixed make-up; rounds with different indices hold different inputs of the
same make-up.  Every run attempts whole rounds, so the share of each kind
of item, and of failed items, is the same in every run.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import reference as R

# ---------------------------------------------------------------------------
# exact-certify

#: (numerator bound, denominator bound) of the Cayley parameters
HEIGHTS = {"low": (3, 4), "high": (12, 9)}

#: solutions per height: (family, how k is drawn)
SOLUTION_PLAN = (
    ("Zero", None),
    ("MinusIdentity", None),
    ("TraceMinus2", None),
    ("TraceMinus2", None),
    ("NonSymRank1", None),
    ("NonSymRank1", None),
    ("KFamily", "rational"),
    ("KFamily", "rational"),
    ("KFamily", "rational"),
    ("KFamily", "gaussian"),
    ("KFamily", "gaussian"),
    ("KFamily", "gaussian"),
)
#: non-solutions per height: perturbed congruates of solutions, and
#: matrices with random entries
PERTURBED_PER_HEIGHT = 3
RANDOM_PER_HEIGHT = 2


def _rational(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _gaussian(rng: random.Random, num: int, den: int):
    return (_rational(rng, num, den), _rational(rng, num, den))


def so3_exact(rng: random.Random, height: str):
    num, den = HEIGHTS[height]
    while True:
        a, b, c = (_gaussian(rng, num, den) for _ in range(3))
        try:
            return R.cayley(a, b, c)
        except ZeroDivisionError:
            continue


def _exact_k(rng: random.Random, how: str):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if how == "rational":
        return R.g(re)
    im = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    return R.g(re, im)


def exact_solution(rng: random.Random, family: str, how, height: str):
    k = _exact_k(rng, how) if family == "KFamily" else None
    A = R.congruate(R.canonical(family, k), so3_exact(rng, height))
    return {"family": family, "k": k, "height": height, "A": A}


def _non_solution(rng: random.Random, height: str, perturbed: bool):
    while True:
        if perturbed:
            family = rng.choice(["TraceMinus2", "NonSymRank1", "KFamily"])
            base = exact_solution(rng, family, "gaussian", height)["A"]
            i, j = rng.randrange(3), rng.randrange(3)
            delta = R.g(Fraction(rng.choice([-1, 1]), rng.randint(2, 9)))
            A = tuple(
                tuple(R.add(x, delta) if (r, c) == (i, j) else x for c, x in enumerate(row))
                for r, row in enumerate(base)
            )
        else:
            num, den = HEIGHTS[height]
            A = tuple(tuple(_gaussian(rng, num, den) for _ in range(3)) for _ in range(3))
        if not R.is_zero(R.residual(A)):
            return {"family": None, "k": None, "height": height, "A": A}


def exact_certify_round(seed: int, index: int) -> list[dict]:
    """34 items: 24 exact solutions and 10 exact non-solutions, half of each
    at each Cayley height.  Each item carries its reference residual."""
    rng = random.Random(f"exact-certify/{seed}/{index}")
    items = []
    for height in HEIGHTS:
        for family, how in SOLUTION_PLAN:
            items.append(exact_solution(rng, family, how, height))
        for _ in range(PERTURBED_PER_HEIGHT):
            items.append(_non_solution(rng, height, perturbed=True))
        for _ in range(RANDOM_PER_HEIGHT):
            items.append(_non_solution(rng, height, perturbed=False))
    for item in items:
        item["residual"] = R.residual(item["A"])
        item["solution"] = R.is_zero(item["residual"])
        item["trace_plus_1"] = R.add(R.trace(item["A"]), R.G1)
    return items


# ---------------------------------------------------------------------------
# orbit

#: spectral-norm cap of the floating SO(3,C) draws
SO3_NORM_CAP = 3.0
#: spectral-norm cap of the floating congruates: above about 10 the witness
#: search starts to answer unknown on congruent pairs now and then, which
#: would make ``verified_found`` depend on the seed; STALLING keeps that
#: fault in the workload on fixed inputs
CONGRUATE_NORM_CAP = 8.0
#: KFamily parameters of the congruent pairs that today's prefilter rejects
LARGE_K = (100.0, 1000.0)
#: congruent KFamily inputs on which today's witness search stalls at an
#: orthogonality defect of about 1e-7 on all of its 64 starts and answers
#: unknown, about a second each: (operation, k, B).  The first, inside the
#: caps above, is the ``classify/KFamily`` item of ``orbit_round(404, 180)``;
#: the second, a representative against a congruate at |k| = 6,
#: ||T||_2 = 3.8 and ||B||_2 = 18.2, lies outside them.
#: Round 0 holds both, so that the defect shows in ``mateq.verdict.unknown``
#: and a search that finds these witnesses raises ``verified_found``.
#: Other rounds do not: at about a second each, the two would take some
#: forty times as long as the rest of a round.
STALLING = (
    ("classify_witness", -1.5596565010653456 - 2.490453146543361j, [
        [-0.32326029269947454 - 0.3534198801489236j, 0.4743518987000108 + 1.3355892348808953j,
         0.892174789966659 - 0.6613092002280548j],
        [-0.4198622529696464 + 1.3706234677606643j, -2.7384593708655127 - 4.05899595403719j,
         -2.713152240783173 + 1.3247315568429656j],
        [0.9586901160870279 + 0.6456819981686689j, -2.873478780097949 + 1.6715664551791303j,
         0.5020631624996409 + 1.9219626876427514j],
    ]),
    ("congruence_test", -5.4294733419300645 - 2.553589479393816j, [
        [2.830811613319406 + 5.203752121673732j, -0.5469394422266601 - 1.7511383074736109j,
         -6.61832563973266 + 5.354627227534106j],
        [-0.7494865306591335 - 0.3220883685289161j, -0.37390040615292575 + 0.20646662316498435j,
         0.7913937812817495 - 1.1879639067914485j],
        [-6.417262153831378 + 5.410765545118323j, 1.8104113084222888 - 0.9149926073553275j,
         -8.886384549096539 - 7.963808224232542j],
    ]),
)


def so3_float(rng: np.random.Generator) -> np.ndarray:
    while True:
        a, b, c = 0.7 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        T = R.cayley_float(a, b, c)
        if np.linalg.norm(T, 2) <= SO3_NORM_CAP:
            return T


def moderate_k(rng: np.random.Generator) -> complex:
    """|k| log-uniform in [0.5, 3], kept 0.25 away from the family
    boundaries k = -1 and k = -1/2."""
    while True:
        k = 10 ** rng.uniform(np.log10(0.5), np.log10(3.0)) * np.exp(2j * np.pi * rng.random())
        if abs(k + 1) > 0.25 and abs(k + 0.5) > 0.25:
            return complex(k)


def congruate(rng: np.random.Generator, family: str, k: complex = 0j) -> np.ndarray:
    """T'AT for the family representative A and a fresh T, redrawn until
    the congruate's spectral norm is at most CONGRUATE_NORM_CAP."""
    A = R.canonical_float(family, k)
    while True:
        B = R.congruate_float(A, so3_float(rng))
        if np.linalg.norm(B, 2) <= CONGRUATE_NORM_CAP:
            return B


def _pair(rng, fam_a, k_a, fam_b, k_b):
    return R.canonical_float(fam_a, k_a), congruate(rng, fam_b, k_b)


def orbit_round(seed: int, index: int) -> list[dict]:
    """33 floating decisions; see the README for the make-up."""
    rng = np.random.default_rng([seed, index, 2])
    items = []

    def congruence(label, fam_a, k_a, fam_b, k_b, expect):
        A, B = _pair(rng, fam_a, k_a, fam_b, k_b)
        items.append({"op": "congruence_test", "label": label, "A": A, "B": B,
                      "expect": expect, "known_fault": False})

    for fam in ("KFamily",) * 4 + ("TraceMinus2",) * 2 + ("NonSymRank1",) * 2 + (
        "MinusIdentity",
        "Zero",
    ):
        k = moderate_k(rng) if fam == "KFamily" else 0j
        congruence(f"congruent/{fam}", fam, k, fam, k, "congruent")

    k1, k2 = moderate_k(rng), moderate_k(rng)
    while abs(k1 - k2) < 0.5:
        k2 = moderate_k(rng)
    for fam_a, k_a, fam_b, k_b in (
        ("TraceMinus2", 0j, "KFamily", -1 + 0j),
        ("KFamily", 0j, "NonSymRank1", 0j),
        ("KFamily", k1, "KFamily", k2),
        ("KFamily", k2, "KFamily", k1),
        ("TraceMinus2", 0j, "NonSymRank1", 0j),
        ("KFamily", k1, "MinusIdentity", 0j),
        ("NonSymRank1", 0j, "Zero", 0j),
        ("KFamily", k2, "TraceMinus2", 0j),
    ):
        congruence(f"not_congruent/{fam_a}-{fam_b}", fam_a, k_a, fam_b, k_b, "not_congruent")

    for fam in ("KFamily",) * 3 + ("TraceMinus2", "NonSymRank1"):
        k = moderate_k(rng) if fam == "KFamily" else 0j
        B = congruate(rng, fam, k)
        items.append({"op": "classify_witness", "label": f"classify/{fam}", "B": B,
                      "family": fam, "k": k, "known_fault": False})

    for fam in ("KFamily",) * 3 + ("TraceMinus2", "NonSymRank1", "MinusIdentity"):
        k = moderate_k(rng) if fam == "KFamily" else 0j
        B = congruate(rng, fam, k)
        items.append({"op": "classify_symmetric", "label": f"symmetric/{fam}",
                      "S": (B + B.T) / 2, "family": fam, "k": k, "known_fault": False})

    T = so3_float(rng)
    items.append({"op": "membership", "label": "membership/in", "T": T,
                  "expect": True, "known_fault": False})
    off = T.copy()
    off[rng.integers(3), rng.integers(3)] += 1e-3
    items.append({"op": "membership", "label": "membership/out", "T": off,
                  "expect": False, "known_fault": False})

    if index == 0:
        # the stalling inputs take the places of the last seeded congruent
        # KFamily pair and KFamily classify, so that every round holds 33
        # items with the same two known faults
        for stall in stalling_items():
            kind = stall["label"].removeprefix("stall/")
            last = max(i for i, item in enumerate(items) if item["label"] == kind)
            items[last] = stall
    # fixed inputs, independent of the seed: congruent pairs at large |k|
    # that the fixed-margin invariant prefilter calls not_congruent
    T = so3_float(np.random.default_rng(0))
    for k in LARGE_K:
        A = R.canonical_float("KFamily", complex(k))
        B = R.congruate_float(A, T)
        items.append({"op": "congruence_test", "label": f"congruent/KFamily-k={k:g}",
                      "A": A, "B": B, "expect": "congruent", "known_fault": True})
    return items


def stalling_items() -> list[dict]:
    """The STALLING inputs as orbit items.  The witness search answers
    unknown on both, which the check takes as an honest answer."""
    items = []
    for op, k, B in STALLING:
        B = np.array(B)
        if op == "classify_witness":
            items.append({"op": op, "label": "stall/classify/KFamily", "B": B,
                          "family": "KFamily", "k": k, "known_fault": False})
        else:
            items.append({"op": op, "label": "stall/congruent/KFamily", "B": B,
                          "A": R.canonical_float("KFamily", k), "expect": "congruent",
                          "known_fault": False})
    return items


# ---------------------------------------------------------------------------
# survey

#: two surveys at the acceptance radius of the numerical rediscovery for
#: one at a wider radius, so that the median item is an acceptance-radius
#: survey rather than the mean of the two kinds
SURVEY_RADII = (2.0, 2.0, 5.0)
SURVEY_STARTS = 500


def survey_round(seed: int, index: int) -> list[dict]:
    """One multistart call per entry of SURVEY_RADII, each with its own
    survey seed."""
    rng = random.Random(f"survey/{seed}/{index}")
    return [
        {"starts": SURVEY_STARTS, "seed": rng.randrange(2**31), "radius": radius}
        for radius in SURVEY_RADII
    ]


# ---------------------------------------------------------------------------
# cli: file contents in the program's documented JSON encoding


def scalar_json(x):
    if isinstance(x, tuple):
        return {"re": f"{x[0].numerator}/{x[0].denominator}",
                "im": f"{x[1].numerator}/{x[1].denominator}"}
    z = complex(x)
    return [z.real, z.imag]


def matrix_json(A):
    return [[scalar_json(x) for x in row] for row in A]


def cli_round(seed: int) -> dict:
    """Inputs of one round of CLI calls; files are written by the worker."""
    rng = random.Random(f"cli/{seed}")
    nrng = np.random.default_rng([seed, 4])
    exact = exact_solution(rng, "KFamily", "gaussian", "low")
    postlie = exact_solution(rng, rng.choice(["TraceMinus2", "NonSymRank1"]), None, "low")
    fam = rng.choice(["TraceMinus2", "NonSymRank1"])
    floating = congruate(nrng, fam)
    k = moderate_k(nrng)
    A, B = _pair(nrng, "KFamily", k, "KFamily", k)
    return {
        "classify_exact": {"A": exact["A"], "family": "KFamily", "k": exact["k"]},
        "classify_float": {"A": floating, "family": fam},
        "orbit": {"A": A, "B": B, "seed": rng.randrange(1000)},
        "postlie": {"A": postlie["A"]},
    }
