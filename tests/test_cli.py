"""CLI surface: subcommands, formats, exit codes, determinism, round-trips."""

import json
import subprocess
import sys

import pytest

from conftest import roundtrip_ok
from treehopf.cli import run
from treehopf.trees import enumerate_trees


def ok(argv):
    result = run(argv)
    assert result.exit_code == 0, result.payload
    return result.payload


def test_enum_count_only():
    assert ok(["enum", "--size", "5", "--count-only"]) == "9"
    assert ok(["enum", "--size", "7", "--count-only"]) == "48"


def test_enum_count_only_uses_recurrence():
    # A000081(30); enumerating these trees would not finish
    assert ok(["enum", "--size", "30", "--count-only"]) == "354426847597"
    for n in range(1, 10):
        assert ok(["enum", "--size", str(n), "--count-only"]) == \
            str(len(enumerate_trees(n)))


def test_enum_lists_trees():
    payload = ok(["enum", "--size", "3"])
    assert json.loads(payload) == ["[[[]]]", "[[][]]"]
    text = ok(["--format", "text", "enum", "--size", "3"])
    assert text == "[[[]]]\n[[][]]"


def test_enum_bad_size():
    assert run(["enum", "--size", "0"]).exit_code == 2
    result = run(["enum", "--size", "0", "--count-only"])
    assert result.exit_code == 2
    assert result.payload == "error: tree size must be >= 1"


def test_prod_gl():
    payload = ok(["prod", "--algebra", "gl", "[[]]", "[[]]"])
    assert payload == ('{"terms": [{"basis": "[[[]]]", "coeff": "1"}, '
                       '{"basis": "[[][]]", "coeff": "1"}]}')


def test_prod_hr():
    payload = ok(["prod", "--algebra", "hr", "[] [[]]", "[]"])
    assert json.loads(payload) == {
        "terms": [{"basis": "[[]] [] []", "coeff": "1"}]}


def test_coprod_hr_cherry():
    payload = ok(["coprod", "--algebra", "hr", "[[][]]"])
    assert json.loads(payload) == {"terms": [
        {"basis": "1 | [[][]]", "coeff": "1"},
        {"basis": "[[][]] | 1", "coeff": "1"},
        {"basis": "[] [] | []", "coeff": "1"},
        {"basis": "[] | [[]]", "coeff": "2"},
    ]}


def test_counit():
    assert ok(["counit", "--algebra", "hr", "1"]) == "1"
    assert ok(["counit", "--algebra", "hr", "[[]]"]) == "0"
    assert ok(["counit", "--algebra", "gl", "[]"]) == "1"


def test_antipode():
    payload = ok(["antipode", "--algebra", "gl", "[[][]]"])
    assert json.loads(payload) == {"terms": [
        {"basis": "[[[]]]", "coeff": "2"},
        {"basis": "[[][]]", "coeff": "1"},
    ]}


def test_grow_and_operators():
    assert json.loads(ok(["grow", "--algebra", "gl", "[[]]"])) == {"terms": [
        {"basis": "[[[]]]", "coeff": "1"}, {"basis": "[[][]]", "coeff": "1"}]}
    assert json.loads(ok(["xk", "2"])) == {"terms": [
        {"basis": "[[[]]]", "coeff": "1"}, {"basis": "[[][]]", "coeff": "1"}]}
    assert json.loads(ok(["delta", "3"])) == {"terms": [
        {"basis": "[[[]]]", "coeff": "1"}, {"basis": "[[][]]", "coeff": "1"}]}
    assert json.loads(ok(["mop", "[]"])) == {"terms": []}
    assert json.loads(ok(["lop", "1"])) == {"terms": [
        {"basis": "[]", "coeff": "1"}]}
    assert json.loads(ok(["lop", "[[]] []"])) == {"terms": [
        {"basis": "[[[]][]]", "coeff": "1"}]}


def test_lie_commands():
    assert json.loads(ok(["bracket", "[]", "[[]]"])) == {"terms": [
        {"basis": "Z:[[][]]", "coeff": "1"}]}
    assert json.loads(ok(["star", "[[]]", "[]"])) == {"terms": [
        {"basis": "Z:[[[]]]", "coeff": "1"}]}
    assert json.loads(ok(["phi", "[[]]"])) == {"terms": [
        {"basis": "Z:[]", "coeff": "1"}]}
    assert json.loads(ok(["psi", "[[][]]"])) == {"terms": [
        {"basis": "[[[][]]]", "coeff": "1"}]}


def test_text_format():
    assert ok(["--format", "text", "delta", "3"]) == "[[[]]] + [[][]]"
    assert ok(["--format", "text", "prod", "--algebra", "gl", "[[]]", "[[]]"]) == \
        "[[[]]] + [[][]]"


def test_file_inputs(tmp_path):
    path = tmp_path / "element.json"
    path.write_text(json.dumps({"terms": [{"basis": "Z:[]", "coeff": "2"}]}),
                    encoding="utf-8")
    payload = ok(["bracket", f"@{path}", "[[]]"])
    assert json.loads(payload) == {"terms": [{"basis": "Z:[[][]]", "coeff": "2"}]}
    missing = run(["bracket", f"@{tmp_path / 'missing.json'}", "[[]]"])
    assert missing.exit_code == 2


def _grow_from_file(tmp_path, term: str):
    """Run ``grow --algebra gl @file`` in a fresh process on one JSON term."""
    path = tmp_path / "element.json"
    path.write_text('{"terms": [%s]}' % term, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "treehopf", "grow", "--algebra", "gl", f"@{path}"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    return proc.stderr


@pytest.mark.parametrize("coeff", ['"1/0"', "1.5", "true"])
def test_bad_coefficient_exits_two_without_traceback(tmp_path, coeff):
    stderr = _grow_from_file(tmp_path, '{"basis": "[[]]", "coeff": %s}' % coeff)
    assert stderr.startswith("error: coefficient")


@pytest.mark.parametrize("basis", ["5", "null"])
def test_non_string_basis_exits_two_without_traceback(tmp_path, basis):
    stderr = _grow_from_file(tmp_path, '{"basis": %s, "coeff": "1"}' % basis)
    assert stderr.startswith("error: basis")


def test_xk_past_the_recursion_limit_exits_two():
    # x_k recurses on k, so a huge k is refused before any growth is done
    result = run(["xk", "3000"])
    assert result.exit_code == 2
    assert result.payload == "error: input nested too deeply"


@pytest.mark.parametrize("command", ["coprod", "grow"])
def test_deep_nesting_exits_two_without_traceback(command):
    deep = "[" * 3000 + "]" * 3000
    proc = subprocess.run(
        [sys.executable, "-m", "treehopf", command, "--algebra", "gl", deep],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: input nested too deeply\n"


def test_usage_errors():
    assert run(["nonsense"]).exit_code == 2
    assert run(["prod", "--algebra", "xx", "[]", "[]"]).exit_code == 2
    assert run(["prod", "--algebra", "gl", "[[", "[]"]).exit_code == 2
    assert run(["delta", "0"]).exit_code == 2
    assert run(["xk", "-1"]).exit_code == 2
    assert run(["phi", "[[][]]"]).exit_code == 2
    assert run(["verify", "--suite", "trees", "--max-degree", "0"]).exit_code == 2
    assert run([]).exit_code == 2


def test_verify_small_suites():
    result = run(["verify", "--suite", "trees", "--max-degree", "2"])
    assert result.exit_code == 0
    report = json.loads(result.payload)
    assert report["suite"] == "trees"
    assert report["maxDegree"] == 2
    assert report["violations"] == []
    assert report["checked"] > 0

    text = run(["verify", "--suite", "lie", "--max-degree", "2", "--report", "text"])
    assert text.exit_code == 0
    assert text.payload.startswith("suite=lie maxDegree=2 ")
    assert text.payload.endswith("violations=0")


def test_corpus_deterministic_and_roundtrips(cli_corpus):
    first = [run(argv) for argv, _ in cli_corpus]
    second = [run(argv) for argv, _ in cli_corpus]
    for (argv, family), a, b in zip(cli_corpus, first, second):
        assert a.exit_code == 0, (argv, a.payload)
        assert a.payload == b.payload, argv
        if family is not None:
            assert roundtrip_ok(a.payload, family), argv


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    probe = ("import sys, treehopf.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cross_process_determinism():
    argv = [sys.executable, "-m", "treehopf", "enum", "--size", "4"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip() == run(["enum", "--size", "4"]).payload


def test_verify_exit_one_on_violation(monkeypatch):
    def broken(name, max_degree=5):
        return {"suite": name, "maxDegree": max_degree, "checked": 1,
                "violations": [{"law": "fake", "inputs": [], "lhs": "0", "rhs": "1"}]}

    monkeypatch.setattr("treehopf.cli.verify.run_suite", broken)
    result = run(["verify", "--suite", "trees", "--max-degree", "2"])
    assert result.exit_code == 1
    assert "fake" in result.payload
