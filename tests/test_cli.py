import json
import warnings
from fractions import Fraction

import pytest

from postlie_sl2 import mateq, serialize
from postlie_sl2.cli import main, verify_canon
from postlie_sl2.linalg import GaussianRational, Mat3, Vec3
from postlie_sl2.mateq import FamilyTag, representative
from postlie_sl2.sl2 import StructureConstants, circ_from_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def write_matrix(tmp_path, name, M):
    path = tmp_path / name
    path.write_text(json.dumps(serialize.matrix_to_json(M)))
    return str(path)


class TestVerifyCanon:
    def test_ok(self, capsys):
        code, doc = run(capsys, "verify-canon")
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["payload"]["pairwise_noncongruent"] is True
        assert len(doc["payload"]["families"]) == 9  # 4 families + 5 k samples
        for fam in doc["payload"]["families"]:
            assert fam["residual_norm"] == "0"
            assert fam["residual_exactly_zero"] is True
            assert fam["postlie_violations"] == 0
            assert fam["rota_baxter_violations"] == 0

    @staticmethod
    def corrupt(monkeypatch, kind, A):
        """Make ``verify_canon`` read A as the representative of ``kind``."""
        monkeypatch.setattr(
            mateq, "representative", lambda tag: A if tag.kind.value == kind else representative(tag)
        )

    def test_corruption_hook_detected(self, monkeypatch):
        self.corrupt(monkeypatch, "TraceMinus2", Mat3.identity())
        code, payload = verify_canon()
        assert code == 1
        bad = [f for f in payload["families"] if f["tag"] == "TraceMinus2"]
        assert bad and "matrix-equation" in bad[0]["failed"]

    def test_undistinguished_pairs_are_reported(self, monkeypatch):
        # a corrupted entry that does not classify separates nothing
        self.corrupt(monkeypatch, "Zero", Mat3.identity())
        code, payload = verify_canon()
        assert code == 1
        assert payload["pairwise_noncongruent"] is False
        pairs = payload["undistinguished_pairs"]
        assert len(pairs) == 8
        assert all("Zero" in entry["pair"] for entry in pairs)
        # a duplicated class is not distinguished from itself
        self.corrupt(monkeypatch, "Zero", -Mat3.identity())
        code, payload = verify_canon()
        assert code == 1
        assert payload["undistinguished_pairs"] == [
            {"pair": ["Zero", "MinusIdentity"], "separating_invariant": None}
        ]


class TestClassify:
    def test_minus_identity(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.json", -Mat3.identity())
        code, doc = run(capsys, "classify", path)
        assert code == 0
        assert doc["payload"]["tag"] == "MinusIdentity"
        assert doc["payload"]["residual_norm"] == 0.0

    def test_identity_violation(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.json", Mat3.identity())
        code, doc = run(capsys, "classify", path)
        assert code == 1
        assert doc["status"] == "violation"
        assert doc["payload"]["error"] == "NotASolution"

    def test_k_family_reports_k(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.json", representative(FamilyTag.k_family(5)))
        code, doc = run(capsys, "classify", path)
        assert code == 0
        assert doc["payload"]["tag"] == "KFamily"
        assert doc["payload"]["k"] == {"re": "5/1", "im": "0/1"}

    def test_exact_mode_follows_encoding(self, capsys, tmp_path):
        # rational-string encoding classifies exactly: residual_norm is 0.0
        path = write_matrix(
            tmp_path, "m.json", representative(FamilyTag.trace_minus_2())
        )
        code, doc = run(capsys, "classify", path)
        assert code == 0
        assert doc["payload"]["residual_norm"] == 0.0

    def test_floating_reports_margins(self, capsys, tmp_path):
        A = representative(FamilyTag.k_family(1e-7 + 0j))
        path = write_matrix(tmp_path, "m.json", A)
        code, doc = run(capsys, "classify", path)
        assert code == 0
        margins = doc["payload"]["margins"]
        assert [m[0] for m in margins] == ["rank(A)", "rank(sym(A)+I/2)"]
        name, sigma, threshold = margins[0]
        assert sigma / threshold == pytest.approx(0.1, rel=1e-6)

    def test_overflowing_residual_is_not_a_solution(self, capsys, tmp_path):
        # the residual overflows to nan, and at 1e308 the trace to inf too:
        # exit 1, valid JSON, nothing on stderr
        for x in (1e200, 1e308):
            A = Mat3.diag(x + 0j, x + 0j, 1 + 0j)
            path = write_matrix(tmp_path, "m.json", A)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["classify", path])
            captured = capsys.readouterr()
            assert code == 1, x
            assert captured.err == ""
            doc = json.loads(captured.out)
            assert doc["status"] == "violation"
            assert doc["payload"]["error"] == "NotASolution"
            assert "not finite" in doc["payload"]["detail"]

    def test_exact_reports_no_margins(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.json", representative(FamilyTag.k_family(5)))
        code, doc = run(capsys, "classify", path)
        assert doc["payload"]["margins"] == []

    def test_bad_json_is_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, doc = run(capsys, "classify", str(path))
        assert code == 2
        assert doc["status"] == "error"

    def test_wrong_shape_is_error(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[0, 0], [0, 0]]))
        code, doc = run(capsys, "classify", str(path))
        assert code == 2

    def test_missing_file_is_error(self, capsys, tmp_path):
        code, doc = run(capsys, "classify", str(tmp_path / "nope.json"))
        assert code == 2


class TestPostlieCheck:
    def test_zero_product_ok(self, capsys, tmp_path):
        from postlie_sl2.sl2 import StructureConstants

        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(serialize.structure_constants_to_json(StructureConstants.zero()))
        )
        code, doc = run(capsys, "postlie-check", str(path))
        assert code == 0
        assert doc["payload"]["violations"] == []

    def test_identity_product_violation(self, capsys, tmp_path):
        from postlie_sl2.sl2 import circ_from_matrix

        c = circ_from_matrix(Mat3.identity())
        path = tmp_path / "c.json"
        path.write_text(json.dumps(serialize.structure_constants_to_json(c)))
        code, doc = run(capsys, "postlie-check", str(path))
        assert code == 1
        assert doc["payload"]["violations"]
        first = doc["payload"]["violations"][0]
        assert set(first) == {"identity", "indices", "residual"}


def _golden_table():
    """e1 o e1 = (1/2 + i/3) e2 and e3 o e2 = -3/4 e1, every other product
    zero: not an adjoint-form product, so both axioms fail."""
    table = [[Vec3.zero() for _ in range(3)] for _ in range(3)]
    table[0][0] = Vec3([0, GaussianRational(Fraction(1, 2), Fraction(1, 3)), 0])
    table[2][1] = Vec3([Fraction(-3, 4), 0, 0])
    return StructureConstants(table)


# postlie-check payloads, captured once; the checkers must reproduce them
# byte for byte (the floating one up to the sign of zero)
GOLDEN_EXACT_IDENTITY = json.loads("""[
    {"identity": "postlie-3", "indices": [1, 1, 2], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "2/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [1, 1, 3], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "2/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [1, 2, 1], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "-2/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [1, 3, 1], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "-2/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [2, 1, 2], "residual": [{"re": "-2/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [2, 2, 1], "residual": [{"re": "2/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [2, 2, 3], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "2/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [2, 3, 2], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "-2/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [3, 1, 3], "residual": [{"re": "-2/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [3, 2, 3], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "-2/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [3, 3, 1], "residual": [{"re": "2/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [3, 3, 2], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "2/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]}
]""")
GOLDEN_EXACT_TABLE = json.loads("""[
    {"identity": "postlie-3", "indices": [1, 1, 3], "residual": [{"re": "-3/8", "im": "-1/4"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [1, 2, 3], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "7/8", "im": "7/12"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [1, 3, 1], "residual": [{"re": "3/8", "im": "1/4"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-4", "indices": [1, 3, 1], "residual": [{"re": "-1/2", "im": "-1/3"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [1, 3, 2], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "-7/8", "im": "-7/12"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-4", "indices": [1, 3, 3], "residual": [{"re": "3/4", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [2, 1, 2], "residual": [{"re": "-3/4", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [2, 1, 3], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "3/8", "im": "1/4"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [2, 2, 1], "residual": [{"re": "3/4", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-3", "indices": [2, 3, 1], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "-3/8", "im": "-1/4"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-4", "indices": [2, 3, 1], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "1/2", "im": "1/3"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-4", "indices": [2, 3, 3], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "-3/4", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-4", "indices": [3, 1, 1], "residual": [{"re": "1/2", "im": "1/3"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-4", "indices": [3, 1, 3], "residual": [{"re": "-3/4", "im": "0/1"}, {"re": "0/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-4", "indices": [3, 2, 1], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "-1/2", "im": "-1/3"}, {"re": "0/1", "im": "0/1"}]},
    {"identity": "postlie-4", "indices": [3, 2, 3], "residual": [{"re": "0/1", "im": "0/1"}, {"re": "3/4", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]}
]""")
GOLDEN_FLOATING_DIAGONAL = json.loads("""[
    {"identity": "postlie-3", "indices": [1, 1, 2], "residual": [[0.0, 0.0], [-1.5, -0.375], [0.0, 0.0]]},
    {"identity": "postlie-3", "indices": [1, 1, 3], "residual": [[0.0, 0.0], [0.0, 0.0], [0.5, 0.125]]},
    {"identity": "postlie-3", "indices": [1, 2, 1], "residual": [[0.0, 0.0], [1.5, 0.375], [0.0, 0.0]]},
    {"identity": "postlie-3", "indices": [1, 3, 1], "residual": [[0.0, 0.0], [0.0, 0.0], [-0.5, -0.125]]},
    {"identity": "postlie-3", "indices": [2, 1, 2], "residual": [[1.5, 0.375], [0.0, 0.0], [0.0, 0.0]]},
    {"identity": "postlie-3", "indices": [2, 2, 1], "residual": [[-1.5, -0.375], [0.0, 0.0], [0.0, 0.0]]},
    {"identity": "postlie-3", "indices": [2, 2, 3], "residual": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.375]]},
    {"identity": "postlie-3", "indices": [2, 3, 2], "residual": [[0.0, 0.0], [0.0, 0.0], [0.0, -0.375]]},
    {"identity": "postlie-3", "indices": [3, 1, 3], "residual": [[-0.5, -0.125], [0.0, 0.0], [0.0, 0.0]]},
    {"identity": "postlie-3", "indices": [3, 2, 3], "residual": [[0.0, 0.0], [0.0, -0.375], [0.0, 0.0]]},
    {"identity": "postlie-3", "indices": [3, 3, 1], "residual": [[0.5, 0.125], [0.0, 0.0], [0.0, 0.0]]},
    {"identity": "postlie-3", "indices": [3, 3, 2], "residual": [[0.0, 0.0], [0.0, 0.375], [0.0, 0.0]]}
]""")


class TestPostlieCheckGolden:
    """The serialized violation lists, residual strings and order included,
    are pinned for one floating and two exact products."""

    def _check(self, capsys, tmp_path, c):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(serialize.structure_constants_to_json(c)))
        assert main(["postlie-check", str(path)]) == 1
        return capsys.readouterr().out.strip()

    @pytest.mark.parametrize(
        "make, golden",
        [
            (lambda: circ_from_matrix(Mat3.identity()), GOLDEN_EXACT_IDENTITY),
            (_golden_table, GOLDEN_EXACT_TABLE),
        ],
    )
    def test_exact(self, capsys, tmp_path, make, golden):
        out = self._check(capsys, tmp_path, make())
        expected = {
            "command": "postlie-check",
            "status": "violation",
            "payload": {"violations": golden},
        }
        assert out == json.dumps(expected)

    def test_floating(self, capsys, tmp_path):
        A = Mat3([[0.5, 0j, 0j], [0j, 0.25j, 0j], [0j, 0j, -1.0]])
        doc = json.loads(self._check(capsys, tmp_path, circ_from_matrix(A)))
        assert doc["payload"]["violations"] == GOLDEN_FLOATING_DIAGONAL


class TestOrbitTest:
    def test_not_congruent_pair(self, capsys, tmp_path):
        a = write_matrix(tmp_path, "a.json", representative(FamilyTag.trace_minus_2()))
        b = write_matrix(tmp_path, "b.json", representative(FamilyTag.k_family(-1)))
        code, doc = run(capsys, "orbit-test", a, b, "--seed", "3")
        assert code == 0
        assert doc["payload"]["verdict"] == "not_congruent"
        assert doc["payload"]["separating_invariant"] == (
            "dim{S : XS = SY, X'S = SY'} for (A,A), (A,B), (B,B) = (2, 2, 3)"
        )

    def test_congruent_pair(self, capsys, tmp_path):
        from postlie_sl2 import so3c

        A = representative(FamilyTag.non_sym_rank1()).to_floating()
        B = mateq.congruate(A, so3c.random_so3(21))
        a = write_matrix(tmp_path, "a.json", A)
        b = write_matrix(tmp_path, "b.json", B)
        code, doc = run(capsys, "orbit-test", a, b, "--seed", "3", "--budget", "32")
        assert code == 0
        assert doc["payload"]["verdict"] == "congruent"
        assert "witness" in doc["payload"]

    def test_overflowing_witness_check_is_not_congruent(self, capsys, tmp_path):
        # T'AT - I overflows to nan for every candidate T; a nan defect must
        # not verify a witness, and no overflow warning reaches stderr
        A = Mat3([[1e308, 1e308, 0.0], [0.0, 1e308, 0.0], [0.0, 0.0, 1.0]])
        a = write_matrix(tmp_path, "a.json", A)
        b = write_matrix(tmp_path, "b.json", Mat3.identity(exact=False))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["orbit-test", a, b, "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["payload"]["verdict"] != "congruent"

    def test_svd_failure_near_float_range_is_unknown(self, capsys, tmp_path):
        # the similarity systems of this pair overflow; the honest answer
        # is unknown, with exit 0 and nothing on stderr
        A = Mat3([[1e308, 1e308, 0.0], [1e308, -1e308, 0.0], [0.0, 0.0, 1.0]])
        a = write_matrix(tmp_path, "a.json", A)
        b = write_matrix(tmp_path, "b.json", Mat3.identity(exact=False))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["orbit-test", a, b, "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        payload = json.loads(captured.out)["payload"]
        assert payload["verdict"] == "unknown"
        assert payload["nullities"] == {"dims": [None] * 3, "decided": [False] * 3}

    def test_nullities_on_every_status(self, capsys, tmp_path):
        from postlie_sl2 import so3c

        A = representative(FamilyTag.non_sym_rank1()).to_floating()
        a = write_matrix(tmp_path, "a.json", A)
        b = write_matrix(tmp_path, "b.json", mateq.congruate(A, so3c.random_so3(21)))
        c = write_matrix(tmp_path, "c.json", representative(FamilyTag.k_family(-1)))
        decided = [True] * 3
        for files, budget, verdict, dims in (
            ((a, b), "32", "congruent", [2, 2, 2]),
            ((a, a), "32", "congruent", [2, 2, 2]),
            ((a, c), "32", "not_congruent", [2, 1, 3]),
            ((a, b), "0", "unknown", [2, 2, 2]),
        ):
            code, doc = run(capsys, "orbit-test", *files, "--seed", "3", "--budget", budget)
            assert code == 0
            assert doc["payload"]["verdict"] == verdict
            assert doc["payload"]["nullities"] == {"dims": dims, "decided": decided}

    def test_seed_required(self, capsys, tmp_path):
        a = write_matrix(tmp_path, "a.json", Mat3.zero())
        code, doc = run(capsys, "orbit-test", a, a)
        assert (code, doc["command"], doc["status"]) == (2, "orbit-test", "error")
        assert "--seed" in doc["payload"]["message"]

    def test_negative_budget_is_error(self, capsys, tmp_path):
        a = write_matrix(tmp_path, "a.json", Mat3.diag(2, 1, 1))
        b = write_matrix(tmp_path, "b.json", Mat3.diag(1, 2, 1))
        code, doc = run(capsys, "orbit-test", a, b, "--seed", "1", "--budget", "-5")
        assert (code, doc["status"]) == (2, "error")
        code, doc = run(capsys, "orbit-test", a, b, "--seed", "1", "--budget", "0")
        assert code == 0


class TestSearch:
    def test_small_survey(self, capsys):
        code, doc = run(capsys, "search", "--starts", "20", "--seed", "11")
        assert code == 0
        payload = doc["payload"]
        assert payload["starts"] == 20
        assert payload["converged"] == sum(payload["family_histogram"].values())
        assert payload["converged"] + payload["failures"] == 20
        assert payload["iterations"] >= payload["converged"]
        assert payload["regularised_steps"] >= 0
        assert payload["stalls"] <= payload["failures"]

    @pytest.mark.parametrize(
        "flag, value", [("--tol", "nan"), ("--radius", "nan"), ("--radius", "-1")]
    )
    def test_bad_arguments_are_errors(self, capsys, flag, value):
        code, doc = run(capsys, "search", "--seed", "1", "--starts", "3", flag, value)
        assert code == 2
        assert doc["status"] == "error"

    def test_overflowing_starts_fail_quietly(self, capsys):
        # the residual norm of a start this far out overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["search", "--seed", "1", "--starts", "3", "--radius", "1e100"])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == 0
        payload = json.loads(captured.out)["payload"]
        assert payload["failures"] == 3
        assert payload["converged"] == 0

    def test_deterministic(self, capsys):
        _, doc1 = run(capsys, "search", "--starts", "10", "--seed", "4")
        _, doc2 = run(capsys, "search", "--starts", "10", "--seed", "4")
        assert doc1 == doc2

    def test_seed_required(self, capsys):
        code, doc = run(capsys, "search", "--starts", "5")
        assert (code, doc["command"], doc["status"]) == (2, "search", "error")
        assert "--seed" in doc["payload"]["message"]


class TestRandomSo3:
    def test_deterministic_and_verified(self, capsys):
        code, doc1 = run(capsys, "random-so3", "--seed", "42")
        _, doc2 = run(capsys, "random-so3", "--seed", "42")
        assert code == 0
        assert doc1 == doc2
        assert doc1["payload"]["orthogonality_residual"] <= 1e-10
        assert doc1["payload"]["det_residual"] <= 1e-10


class TestAdjointRep:
    def test_quarter_turn(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        data = [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]
        path.write_text(json.dumps(data))
        code, doc = run(capsys, "adjoint-rep", str(path))
        assert code == 0
        M = serialize.mat3_from_json(doc["payload"]["matrix"])
        assert (M - Mat3.diag(1.0, -1.0, -1.0)).frobenius_norm() < 1e-12

    def test_singular_is_error(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        data = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]
        path.write_text(json.dumps(data))
        code, doc = run(capsys, "adjoint-rep", str(path))
        assert code == 2


class TestRoundTrips:
    def test_exact_matrix_bit_identical(self, capsys, tmp_path):
        A = representative(FamilyTag.trace_minus_2())
        path = write_matrix(tmp_path, "a.json", A)
        code, doc = run(
            capsys, "orbit-test", path, path, "--seed", "1", "--budget", "1"
        )
        # the emitted witness re-parses; exact inputs re-parse bit-identically
        reparsed = serialize.mat3_from_json(json.loads(json.dumps(serialize.matrix_to_json(A))))
        assert reparsed == A

    def test_floating_matrix_17_digit_round_trip(self):
        import numpy as np

        rng = np.random.default_rng(1)
        M = Mat3.from_numpy(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        reparsed = serialize.mat3_from_json(json.loads(json.dumps(serialize.matrix_to_json(M))))
        assert reparsed == M

    @pytest.mark.parametrize("obj", [True, False, [True, 0], [0.5, False], ["1", 0]])
    def test_non_numbers_are_no_floating_scalars(self, obj):
        with pytest.raises(ValueError, match="bad scalar"):
            serialize.scalar_from_json(obj)

    def test_numbers_are_floating_scalars(self):
        assert serialize.scalar_from_json(2) == 2 + 0j
        assert serialize.scalar_from_json([0.5, -1]) == 0.5 - 1j

    @pytest.mark.parametrize(
        "part, value",
        [("3", 3), ("-3", -3), ("+3", 3), ("6/4", Fraction(3, 2)), ("-7/3", Fraction(-7, 3)), (5, 5)],
    )
    def test_exact_components_are_integers_or_quotients(self, part, value):
        assert serialize.scalar_from_json({"re": part, "im": "0"}) == value
        assert serialize.scalar_from_json({"re": "0", "im": part}) == GaussianRational(0, value)

    @pytest.mark.parametrize(
        "part",
        ["1e3000000", "1e30000000", "1.5", "1e5", "1_000", " 3 ", "3\n", "", "1/0", "1/-2",
         "0x10", "\u0661\u0662", True, 1.5],
    )
    def test_other_exact_components_are_errors(self, part):
        # Fraction would take exponent and decimal notation, and expand
        # "1e30000000" to thirty million digits
        for obj in ({"re": part, "im": "0"}, {"re": "0", "im": part}):
            with pytest.raises(ValueError, match="bad exact scalar"):
                serialize.scalar_from_json(obj)

    @pytest.mark.parametrize("obj", [10**400, [0, -(10**400)]])
    def test_integers_beyond_the_float_range_are_errors(self, obj):
        with pytest.raises(ValueError, match="floating range"):
            serialize.scalar_from_json(obj)

    def test_structure_constants_round_trip(self):
        from postlie_sl2.sl2 import LIE_BRACKET

        doc = json.loads(json.dumps(serialize.structure_constants_to_json(LIE_BRACKET)))
        assert serialize.structure_constants_from_json(doc) == LIE_BRACKET
