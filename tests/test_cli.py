import json

import pytest

from postlie_sl2 import mateq, serialize
from postlie_sl2.cli import main, verify_canon
from postlie_sl2.linalg import Mat3
from postlie_sl2.mateq import FamilyTag, representative


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

    def test_corruption_hook_detected(self):
        code, payload = verify_canon(corrupt={"TraceMinus2": Mat3.identity()})
        assert code == 1
        bad = [f for f in payload["families"] if f["tag"] == "TraceMinus2"]
        assert bad and "matrix-equation" in bad[0]["failed"]


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


class TestOrbitTest:
    def test_not_congruent_pair(self, capsys, tmp_path):
        a = write_matrix(tmp_path, "a.json", representative(FamilyTag.trace_minus_2()))
        b = write_matrix(tmp_path, "b.json", representative(FamilyTag.k_family(-1)))
        code, doc = run(capsys, "orbit-test", a, b, "--seed", "3")
        assert code == 0
        assert doc["payload"]["verdict"] == "not_congruent"
        assert doc["payload"]["separating_invariant"] == "rank(A'A)"

    def test_congruent_pair(self, capsys, tmp_path):
        from postlie_sl2 import so3c

        A = representative(FamilyTag.non_sym_rank1()).to_floating()
        B = mateq.congruate(A, so3c.random_so3(21).matrix)
        a = write_matrix(tmp_path, "a.json", A)
        b = write_matrix(tmp_path, "b.json", B)
        code, doc = run(capsys, "orbit-test", a, b, "--seed", "3", "--budget", "32")
        assert code == 0
        assert doc["payload"]["verdict"] == "congruent"
        assert "witness" in doc["payload"]

    def test_seed_required(self, capsys, tmp_path):
        a = write_matrix(tmp_path, "a.json", Mat3.zero())
        with pytest.raises(SystemExit) as exc:
            main(["orbit-test", a, a])
        assert exc.value.code == 2


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

    def test_deterministic(self, capsys):
        _, doc1 = run(capsys, "search", "--starts", "10", "--seed", "4")
        _, doc2 = run(capsys, "search", "--starts", "10", "--seed", "4")
        assert doc1 == doc2

    def test_seed_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--starts", "5"])
        assert exc.value.code == 2


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

    def test_structure_constants_round_trip(self):
        from postlie_sl2.sl2 import LIE_BRACKET

        doc = json.loads(json.dumps(serialize.structure_constants_to_json(LIE_BRACKET)))
        assert serialize.structure_constants_from_json(doc) == LIE_BRACKET
