"""``python -m postlie_sl2`` in a fresh interpreter: which modules a command
loads, what it answers, and how it fails on bad input."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import postlie_sl2
from postlie_sl2 import serialize, so3c
from postlie_sl2.cli import main
from postlie_sl2.mateq import FamilyTag, congruate, representative
from postlie_sl2.sl2 import circ_from_matrix

SRC = str(Path(postlie_sl2.__file__).resolve().parents[1])

#: runs the command line through runpy, then prints the loaded numpy
#: submodules as the last line of stderr and exits with the command's code
WRAPPER = """
import json, runpy, sys
sys.argv = ["postlie-sl2", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("postlie_sl2", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy."))), file=sys.stderr)
sys.exit(code)
"""


def environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=environment(), timeout=120
    )


def run_process(*argv):
    """(exit code, the one JSON document on stdout, numpy submodules loaded)."""
    proc = python("-c", WRAPPER, *argv)
    assert "Traceback" not in proc.stderr, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1, proc.stdout
    return proc.returncode, json.loads(lines[0]), json.loads(proc.stderr.splitlines()[-1])


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def in_process(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


#: two threads make the package's first numpy call at once
FIRST_NUMPY_CALL_RACE = """
import threading
from postlie_sl2._numpy import np
barrier = threading.Barrier(2)
errors = []
def first_call():
    barrier.wait()
    try:
        np.zeros(3)
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_call) for _ in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(errors)
"""


def test_first_numpy_call_is_safe_under_threads():
    # a thread must not read numpy while another is still executing it
    for _ in range(5):
        proc = python("-c", FIRST_NUMPY_CALL_RACE)
        assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr + proc.stdout


def test_loaded_numpy_is_the_plain_module():
    proc = python(
        "-c",
        "import sys, types; from postlie_sl2._numpy import np; np.zeros(1); "
        "print(type(np) is types.ModuleType and np is sys.modules['numpy'])",
    )
    assert proc.stdout.strip() == "True", proc.stderr


class TestCommandsStartWithoutNumpy:
    def test_import(self):
        proc = python(
            "-c",
            "import json, sys, postlie_sl2; "
            "print(json.dumps([m for m in sys.modules if m.startswith('numpy.')]))",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_verify_canon(self):
        code, doc, loaded = run_process("verify-canon")
        assert (code, doc["status"]) == (0, "ok")
        assert doc["payload"]["pairwise_noncongruent"] is True
        assert loaded == []

    def test_classify_exact(self, tmp_path):
        A = representative(FamilyTag.k_family(5))
        code, doc, loaded = run_process(
            "classify", write_json(tmp_path, "m.json", serialize.matrix_to_json(A))
        )
        assert (code, doc["payload"]["tag"]) == (0, "KFamily")
        assert loaded == []

    def test_postlie_check(self, tmp_path):
        c = circ_from_matrix(representative(FamilyTag.trace_minus_2()))
        path = write_json(tmp_path, "c.json", serialize.structure_constants_to_json(c))
        code, doc, loaded = run_process("postlie-check", path)
        assert (code, doc["payload"]["violations"]) == (0, [])
        assert loaded == []

    def test_postlie_check_floating(self, tmp_path):
        c = circ_from_matrix(representative(FamilyTag.k_family(2.5 + 0j)))
        path = write_json(tmp_path, "c.json", serialize.structure_constants_to_json(c))
        code, doc, loaded = run_process("postlie-check", path)
        assert (code, doc["payload"]["violations"]) == (0, [])
        assert loaded == []

    def test_adjoint_rep(self, tmp_path):
        path = write_json(tmp_path, "p.json", [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]])
        code, doc, loaded = run_process("adjoint-rep", path)
        assert (code, doc["status"]) == (0, "ok")
        assert loaded == []


class TestFloatingCommands:
    def test_classify(self, capsys, tmp_path):
        A = representative(FamilyTag.k_family(1.5 + 0.5j))
        B = congruate(A, so3c.random_so3(7))
        path = write_json(tmp_path, "m.json", serialize.matrix_to_json(B))
        code, doc, loaded = run_process("classify", path)
        assert (code, doc["payload"]["tag"]) == (0, "KFamily")
        assert (code, doc) == in_process(capsys, "classify", path)
        assert loaded

    def test_orbit_test(self, capsys, tmp_path):
        A = representative(FamilyTag.non_sym_rank1()).to_floating()
        B = congruate(A, so3c.random_so3(21))
        argv = [
            "orbit-test",
            write_json(tmp_path, "a.json", serialize.matrix_to_json(A)),
            write_json(tmp_path, "b.json", serialize.matrix_to_json(B)),
            "--seed", "3",
        ]
        code, doc, loaded = run_process(*argv)
        assert (code, doc["payload"]["verdict"]) == (0, "congruent")
        assert (code, doc) == in_process(capsys, *argv)
        assert loaded


ZERO_ROW = [0, 0, 0]


@pytest.mark.parametrize(
    "command, content",
    [
        ("classify", json.dumps([[True, 0, 0], ZERO_ROW, ZERO_ROW])),
        ("classify", json.dumps([[[True, 0], 0, 0], ZERO_ROW, ZERO_ROW])),
        ("classify", "[" * 100_000),
        ("postlie-check", "[" * 100_000),
        ("classify", json.dumps([[0, 0], [0, 0]])),
        ("classify", "[[NaN, 0, 0], [0, 0, 0], [0, 0, 0]]"),
        ("classify", "[[1" + "0" * 400 + ", 0, 0], [0, 0, 0], [0, 0, 0]]"),
        ("classify", b"\xff\xfe[[0"),
        ("orbit-test", None),
    ],
    ids=[
        "bare-boolean", "boolean-component", "deep-classify", "deep-postlie-check",
        "wrong-shape", "non-finite", "beyond-float-range", "undecodable-bytes", "negative-budget",
    ],
)
def test_bad_input_is_one_error_document(tmp_path, command, content):
    if command == "orbit-test":
        a = write_json(tmp_path, "a.json", [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        b = write_json(tmp_path, "b.json", [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        argv = [command, a, b, "--seed", "1", "--budget", "-5"]
    else:
        path = tmp_path / "in.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        argv = [command, str(path)]
    code, doc, _ = run_process(*argv)
    assert code == 2
    assert doc["command"] == command
    assert doc["status"] == "error"


def test_non_finite_result_is_one_error_document(tmp_path):
    # diag(1e78, 1e-78) is invertible, but T'T of its adjoint representation
    # overflows, so the orthogonality residual is not finite; JSON has no
    # NaN or Infinity
    path = write_json(tmp_path, "p.json", [[[1e78, 0], [0, 0]], [[0, 0], [1e-78, 0]]])
    proc = python("-m", "postlie_sl2", "adjoint-rep", path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr

    def refuse(constant):
        raise AssertionError(f"stdout holds {constant}")

    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0], parse_constant=refuse)
    assert (doc["command"], doc["status"]) == ("adjoint-rep", "error")
    assert doc["payload"]["message"]


def test_exact_entry_past_the_float_range_is_one_error_document(tmp_path):
    # congruence is decided on floating copies, which 10**400 has none of
    zero = {"re": "0", "im": "0"}
    one = {"re": "1", "im": "0"}
    huge = [[{"re": str(10**400), "im": "0"}, zero, zero], [zero] * 3, [zero] * 3]
    identity = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    a, b = write_json(tmp_path, "a.json", huge), write_json(tmp_path, "b.json", identity)
    proc = python("-m", "postlie_sl2", "orbit-test", a, b, "--seed", "1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert (doc["command"], doc["status"]) == ("orbit-test", "error")
    assert "exceeds the floating range" in doc["payload"]["message"]


def test_table_of_numbers_is_one_error_document(tmp_path):
    path = write_json(tmp_path, "c.json", {"c": [[1, 2, 3]] * 3})
    code, doc, _ = run_process("postlie-check", path)
    assert (code, doc["command"], doc["status"]) == (2, "postlie-check", "error")
    assert "3x3x3" in doc["payload"]["message"]


def test_exponent_notation_is_refused_at_once(tmp_path):
    # Fraction would expand this 30-byte entry to thirty million digits,
    # more than a minute of work
    zero = {"re": "0", "im": "0"}
    rows = [[{"re": "1e30000000", "im": "0"}, zero, zero], [zero] * 3, [zero] * 3]
    path = write_json(tmp_path, "m.json", rows)
    start = time.perf_counter()
    code, doc, _ = run_process("classify", path)
    assert time.perf_counter() - start < 1.0
    assert (code, doc["command"], doc["status"]) == (2, "classify", "error")


@pytest.mark.parametrize(
    "argv, command",
    [
        (["orbit-test", "a.json"], "orbit-test"),
        (["search", "--starts", "abc", "--seed", "1"], "search"),
        (["search", "--starts", "5"], "search"),
        (["search", "--seed", "1", "--tol", "1e-12"], "search"),
        (["search", "--seed", "1", "--max-iter", "5"], "search"),
        (["no-such-command"], None),
        ([], None),
    ],
    ids=[
        "missing-file-and-seed", "malformed-int", "missing-seed", "threshold-tol",
        "threshold-max-iter", "unknown-command", "no-command",
    ],
)
def test_bad_command_line_is_one_error_document(argv, command):
    code, doc, _ = run_process(*argv)
    assert code == 2
    assert doc == {
        "command": command,
        "status": "error",
        "payload": {"message": doc["payload"]["message"]},
    }
    assert doc["payload"]["message"].startswith("postlie-sl2")


def test_help_exits_zero():
    proc = python("-m", "postlie_sl2", "search", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: postlie-sl2 search")


def test_closed_stdout_is_quiet():
    # the reader goes away before the document is written, as under
    # `postlie-sl2 search ... | head -c 600`: no traceback, same exit code
    proc = subprocess.Popen(
        [sys.executable, "-m", "postlie_sl2", "search", "--starts", "20", "--seed", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=environment(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
