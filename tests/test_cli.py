"""CLI surface: subcommands, formats, exit codes, determinism, round-trips."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from math import comb

import pytest

from conftest import child_env, roundtrip_ok, run_python
from treehopf import SUITES, cli, verify
from treehopf import connes_kreimer as ck
from treehopf import grossman_larson as gl
from treehopf import operators as ops
from treehopf import tree_lie
from treehopf.cli import _build_parser, run
from treehopf.exactlin import LinComb
from treehopf.trees import (Forest, admissible_cuts, enumerate_forests,
                            enumerate_trees, parse_forest, parse_tree)


def ok(argv):
    result = run(argv)
    assert result.exit_code == 0, result.payload
    return result.payload


def test_enum_count_only():
    assert ok(["enum", "--size", "5", "--count-only"]) == "9"
    assert ok(["enum", "--size", "7", "--count-only"]) == "48"


def test_enum_count_only_uses_recurrence():
    # A000081(30); enumerating these trees would not finish, but
    # --count-only has its own, far higher ceiling
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


def test_lie_literals_accept_printed_prefix():
    """A Lie-side key as the CLI prints it is a valid literal argument."""
    for argv in (["bracket", "[]", "[[]]"], ["star", "[[]]", "[]"], ["psi", "[[][]]"]):
        plain = ok(argv)
        for i in range(1, len(argv)):
            assert ok(argv[:i] + ["Z:" + argv[i]] + argv[i + 1:]) == plain
    printed = json.loads(ok(["phi", "[[[]]]"]))["terms"][0]["basis"]
    assert printed == "Z:[[]]"
    assert ok(["psi", printed]) == ok(["psi", "[[]]"])
    # the prefix stays Lie-side only, and is stripped once
    for argv in (["phi", "Z:[[]]"], ["psi", "Z:Z:[]"], ["bracket", "Z:", "[]"]):
        result = run(argv)
        assert result.exit_code == 2 and result.payload.startswith("error: "), argv


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
    proc = run_python("-m", "treehopf", "grow", "--algebra", "gl", f"@{path}")
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


def test_a_result_past_the_digit_cap_prints_exactly(tmp_path):
    """A 4000-digit coefficient is accepted, and its square, longer than the
    4300 digits Python converts by default, prints in full; rendering lifts
    the cap and restores it, so a longer input is still refused."""
    def element(name, coeff):
        return _write(tmp_path, name, json.dumps(
            {"terms": [{"basis": "[[]]", "coeff": coeff}]}))

    big = element("big.json", "7" * 4000)
    proc = run_python("-X", "int_max_str_digits=0", "-c", "print(int('7' * 4000) ** 2)")
    square = proc.stdout.strip()
    assert len(square) == 8000
    assert json.loads(ok(["prod", "--algebra", "hr", big, big])) == {
        "terms": [{"basis": "[[]] [[]]", "coeff": square}]}
    assert ok(["--format", "text", "prod", "--algebra", "gl", big, big]) == \
        f"{square}*[[[]]] + {square}*[[][]]"
    # Python caps conversions at 4300 digits by default from 3.10.7 on
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        result = run(["prod", "--algebra", "hr", element("huge.json", "7" * 5000), "[]"])
        assert result.exit_code == 2
        assert result.payload.startswith("error: ")
        assert "\n" not in result.payload


def test_xk_past_the_recursion_limit_exits_two():
    # x_k recurses on k, but a k this large is refused by its ceiling first
    result = run(["xk", "3000"])
    assert result.exit_code == 2
    assert result.payload == ("error: xk k=3000 is above its ceiling of 14: "
                              "the work grows about 3x per step")


# one call just above each ceiling; refused before any work is done
ABOVE_CEILINGS = [
    (["xk", "15"], "xk k=15", 14),
    (["delta", "16"], "delta k=16", 15),
    (["enum", "--size", "16"], "enum --size=16", 15),
    (["verify", "--suite", "trees", "--max-degree", "11"],
     "verify --max-degree=11", 10),
    (["enum", "--size", "501", "--count-only"], "enum --count-only --size=501", 500),
    # the input's shape: root fertility, placements of the left factor's
    # root subtrees (two distinct ones on 316 vertices give 99856), and cuts
    (["coprod", "--algebra", "gl", "[" + "[]" * 19 + "]"],
     "coprod --algebra gl fertility=19", 18),
    (["antipode", "--algebra", "gl", "[" + "[]" * 13 + "]"],
     "antipode --algebra gl fertility=13", 12),
    (["prod", "--algebra", "gl", "[[][[]]]", "[" + "[]" * 316 + "]"],
     "prod --algebra gl placements=100489", 100000),
    # a root over the 17 smallest distinct trees, each placed on one of the
    # chain's two vertices
    (["mop", "[" + "".join(t.encoding for n in range(1, 6)
                           for t in enumerate_trees(n)) + "]"],
     "mop --algebra gl placements=131072", 100000),
    # a chain over a 16-leaf corolla: (2 ** 16 - 1) + 2 - 1 cuts
    (["coprod", "--algebra", "hr", "[[" + "[]" * 16 + "]]"],
     "coprod --algebra hr cuts=65536", 65535),
    (["antipode", "--algebra", "hr", "[[" + "[]" * 16 + "]]"],
     "antipode --algebra hr cuts=65536", 65535),
]


@pytest.mark.parametrize("argv, named, limit", ABOVE_CEILINGS,
                         ids=[named.rsplit(" ", 1)[0].replace(" --", "-")
                              .replace(" ", "-") for _, named, _ in ABOVE_CEILINGS])
def test_work_above_a_ceiling_is_refused(argv, named, limit, monkeypatch):
    def never(*args):
        raise AssertionError("a refused call must not start its work")

    for module, attr in [(cli, "enumerate_trees"), (cli, "count_trees_recurrence"),
                         (verify, "run_suite"), (ops, "x_k"), (ck, "delta"),
                         (gl, "coproduct"), (gl, "antipode"), (gl, "product"),
                         (ck, "coproduct"), (ck, "antipode"), (ops, "m_apply")]:
        monkeypatch.setattr(module, attr, never)
    result = run(argv)
    assert result.exit_code == 2
    assert result.payload.startswith(f"error: {named} is above its ceiling of {limit}")
    assert "\n" not in result.payload


def test_shape_measures_count_without_enumerating():
    # the cut recurrence is exact, and the placements bound every product
    for t in (t for n in range(1, 9) for t in enumerate_trees(n)):
        assert cli._tree_cuts(t.children) == len(admissible_cuts(t)), t
        assert cli._cuts(Forest((t,))) == len(admissible_cuts(t)), t
        assert cli._cut_terms(t) >= len(ck.tree_coproduct_by_cuts(t).terms), t
    for a in (t for n in range(1, 6) for t in enumerate_trees(n)):
        for b in (t for n in range(1, 5) for t in enumerate_trees(n)):
            assert cli._placements(a, b) >= len(gl.tree_product(a, b).terms)
    # a forest's measure bounds its coproduct's non-trivial terms, a run of
    # equal trees counted as a multiset
    for f in (f for w in range(1, 8) for f in enumerate_forests(w)):
        assert cli._cuts(f) >= len(ck.forest_coproduct(f).terms) - 2, f
    assert cli._cuts(parse_forest("[[]] [[][]]")) == 3 * 4 - 2
    assert cli._cuts(parse_forest(" ".join(["[]"] * 17))) == 18 - 2


@pytest.mark.parametrize("trees", [["[]"] * 17, ["[[]]"] * 11],
                         ids=["17-leaves", "11-chains"])
@pytest.mark.parametrize("command", ["coprod", "antipode"])
def test_forests_of_equal_trees_are_answered(command, trees):
    # the kernels multiply one memoized result per distinct tree, so a run
    # of equal trees costs little however long it is
    result = run([command, "--algebra", "hr", " ".join(trees)])
    assert result.exit_code == 0, result.payload
    assert len(json.loads(result.payload)["terms"]) == (
        {"coprod": 18, "antipode": 1}[command] if trees[0] == "[]" else
        {"coprod": comb(3 + 11 - 1, 11), "antipode": 12}[command])


def test_forests_of_distinct_trees_multiply_their_terms(monkeypatch):
    # seven distinct trees, a leaf and a chain: 94498 terms at most, where
    # the widest tree has 15 cuts
    monkeypatch.setattr(ck, "coproduct", lambda x: pytest.fail("not refused"))
    forest = "[[][][][]] [[][][]] [[[][]]] [[[]][]] [[[[]]]] [[[[]]]] [[]] []"
    result = run(["coprod", "--algebra", "hr", forest])
    assert result.payload.startswith("error: coprod --algebra hr cuts=94498 ")


@pytest.mark.parametrize("command", ["coprod", "grow"])
def test_deep_nesting_exits_two_without_traceback(command):
    deep = "[" * 3000 + "]" * 3000
    proc = run_python("-m", "treehopf", command, "--algebra", "gl", deep)
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

    text = run(["--format", "text", "verify", "--suite", "lie", "--max-degree", "2"])
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
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_closed_pipe_ends_quietly():
    """A reader that stops after 10 bytes of a listing larger than a pipe
    buffer (133 KB) gets no traceback, and the call keeps its exit code."""
    proc = subprocess.Popen([sys.executable, "-m", "treehopf", "enum", "--size", "12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


@pytest.mark.parametrize("argv", [
    ["prod", "--algebra", "gl", "[[]]", "[[]]"],
    ["verify", "--suite", "trees", "--max-degree", "3"],
    ["prod", "--algebra", "gl", "[[", "[]"],
])
def test_fresh_process_matches_run(argv):
    """``main`` ends the process with ``os._exit`` once both streams are
    flushed: a fresh process prints what ``run`` returns, on the stream and
    with the exit code the contract gives it."""
    result = run(argv)
    proc = run_python("-m", "treehopf", *argv)
    line = result.payload + "\n"
    assert proc.returncode == result.exit_code
    assert (proc.stdout, proc.stderr) == (("", line) if result.exit_code == 2 else (line, ""))


def test_fresh_process_exits_one_on_violation():
    probe = ("import sys, treehopf.cli, treehopf.verify; "
             "treehopf.verify.run_suite = lambda name, max_degree: {'suite': name, "
             "'maxDegree': max_degree, 'checked': 1, 'violations': [{'law': 'fake', "
             "'inputs': [], 'lhs': '0', 'rhs': '1'}]}; "
             "treehopf.cli.main()")
    proc = run_python("-c", probe, "verify", "--suite", "trees", "--max-degree", "2")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["violations"][0]["law"] == "fake"


@pytest.mark.parametrize("tracer, teardown", [("", False),
                                              ("sys.settrace(lambda *a: None); ", True)])
def test_teardown_runs_only_under_a_tracer(tracer, teardown):
    """An ``atexit`` callback shows whether the interpreter tore down: not
    after a plain call, but after one with a tracer attached, which writes
    its output at exit."""
    probe = ("import atexit, sys, treehopf.cli; "
             "atexit.register(lambda: print('teardown', file=sys.stderr)); "
             f"{tracer}treehopf.cli.main()")
    proc = run_python("-c", probe, "enum", "--size", "3")
    assert proc.returncode == 0
    assert proc.stdout == '["[[[]]]", "[[][]]"]\n'
    assert proc.stderr == ("teardown\n" if teardown else "")


def test_profiled_call_prints_its_profile():
    proc = run_python("-m", "cProfile", "-m", "treehopf", "enum", "--size", "3")
    assert proc.returncode == 0, proc.stderr
    payload, profile = proc.stdout.split("\n", 1)
    assert payload == '["[[[]]]", "[[][]]"]'
    assert "function calls" in profile


def test_run_never_ends_the_process(cli_corpus, monkeypatch):
    def refuse(code):
        raise AssertionError(f"os._exit({code}) called from run()")

    monkeypatch.setattr(os, "_exit", refuse)
    codes = [run(argv).exit_code for argv, _ in cli_corpus]
    codes.append(run(["prod", "--algebra", "gl", "[[", "[]"]).exit_code)
    assert codes == [0] * len(cli_corpus) + [2]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("size", ["3", "12"])
def test_a_full_device_exits_two_with_one_line(size):
    """A failed write is not a violation (exit 1): it gives one ``error:``
    line and exit 2.  A listing of 12 outgrows the stream's buffer and
    fails in the write; one of 3 fails in the flush when stdout is
    buffered."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "treehopf", "enum", "--size", size],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=child_env())
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


def test_a_closed_stdout_exits_two_with_one_line():
    proc = subprocess.run([sys.executable, "-m", "treehopf", "enum", "--size", "3"],
                          stderr=subprocess.PIPE, text=True, env=child_env(),
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write output: stdout is closed\n"


@pytest.mark.parametrize("argv, exit_code, stdout", [
    (["prod", "--algebra", "gl", "[[", "[]"], 2, ""),
    (["enum", "--size", "3"], 0, '["[[[]]]", "[[][]]"]\n'),
])
def test_a_closed_stderr_keeps_the_exit_code(argv, exit_code, stdout):
    """A closed stderr is never written to: an ``error:`` line is lost, but
    the call keeps its own exit code and never writes it to stdout."""
    proc = subprocess.run([sys.executable, "-m", "treehopf", *argv],
                          stdout=subprocess.PIPE, text=True, env=child_env(),
                          preexec_fn=lambda: os.close(2))
    assert proc.returncode == exit_code
    assert proc.stdout == stdout


def test_cross_process_determinism():
    argv = ["-m", "treehopf", "enum", "--size", "4"]
    first = run_python(*argv)
    second = run_python(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip() == run(["enum", "--size", "4"]).payload


def test_verify_exit_one_on_violation(monkeypatch):
    def broken(name, max_degree=5):
        return {"suite": name, "maxDegree": max_degree, "checked": 1,
                "violations": [{"law": "fake", "inputs": [], "lhs": "0", "rhs": "1"}]}

    monkeypatch.setattr("treehopf.verify.run_suite", broken)
    result = run(["verify", "--suite", "trees", "--max-degree", "2"])
    assert result.exit_code == 1
    assert "fake" in result.payload


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return f"@{path}"


def _pinned_corpus(tmp_path) -> list:
    """Every compute command in json and text on literal and ``@file`` inputs,
    then bad inputs (bad files, a missing file, bad literals, deep nesting)."""
    terms = {
        "gl": [{"basis": "[[[]]]", "coeff": "1"}, {"basis": "[[][]]", "coeff": "-2/3"}],
        "hr": [{"basis": "[] [[]]", "coeff": "3"}, {"basis": "1", "coeff": "1/2"}],
        "lie": [{"basis": "Z:[]", "coeff": "2"}, {"basis": "Z:[[]]", "coeff": "-1"}],
    }
    trees = [t.encoding for n in range(1, 4) for t in enumerate_trees(n)]
    forests = ["1"] + [f.encoding for w in (1, 2) for f in enumerate_forests(w)]
    literals = {"gl": trees, "hr": forests, "lie": trees}
    elements = {family: literals[family] + [
        _write(tmp_path, f"{family}.json", json.dumps({"terms": terms[family]}))]
        for family in terms}
    calls = []
    for algebra in ("gl", "hr"):
        xs = elements[algebra]
        calls += [[name, "--algebra", algebra, x]
                  for name in ("coprod", "antipode", "counit", "grow") for x in xs]
        calls += [["prod", "--algebra", algebra, a, b] for a in xs for b in xs]
    calls += [[name, k] for name in ("xk", "delta") for k in ("0", "1", "2", "3")]
    calls += [[name, x] for name in ("mop", "phi") for x in elements["gl"]]
    calls += [["lop", x] for x in elements["hr"]]
    calls += [["psi", x] for x in elements["lie"]]
    calls += [[name, a, b] for name in ("bracket", "star")
              for a in elements["lie"] for b in elements["lie"]]
    corpus = [fmt + argv for fmt in ([], ["--format", "text"]) for argv in calls]
    bad_files = ['{"terms": [{"basis": "[[]]", "coeff": "1/0"}]}',
                 '{"terms": [{"basis": "[[]]", "coeff": 1.5}]}',
                 '{"terms": [{"basis": 5, "coeff": "1"}]}',
                 '{"terms": [{"basis": "[[", "coeff": "1"}]}',
                 '{"terms": [}']
    bad = [_write(tmp_path, f"bad{i}.json", text) for i, text in enumerate(bad_files)]
    bad += [f"@{tmp_path / 'missing.json'}", "[[", "[] x", "Z:[]",
            "[" * 3000 + "]" * 3000]
    for x in bad:
        corpus += [["grow", "--algebra", "gl", x], ["coprod", "--algebra", "hr", x],
                   ["bracket", x, "[]"], ["psi", x]]
    return corpus


PINNED_CLI_DIGEST = "5b86362c68e535914c282ba409f68e0088463ad4288b6378b648e14e7612aee4"


def test_cli_outputs_pinned(tmp_path):
    """sha256 of (argv, exit code, payload) over the pinned corpus, temporary
    paths masked.  The digest was taken before the commands became a table,
    and re-pinned when Lie-side literals began to accept ``Z:``: only the
    ``bracket``/``psi`` lines on the literal ``Z:[]`` changed (exit 2 to 0)."""
    digest = hashlib.sha256()
    for argv in _pinned_corpus(tmp_path):
        result = run(argv)
        line = json.dumps([argv, result.exit_code, result.payload])
        digest.update(line.replace(str(tmp_path), "<tmp>").encode() + b"\n")
    assert digest.hexdigest() == PINNED_CLI_DIGEST


EXPECTED_PARSER_SHAPE = [
    ("enum", "enumerate trees of a given size", [], None),
    ("prod", "product of two elements", [("a", None), ("b", None)], ("gl", "hr")),
    ("coprod", "coproduct of an element", [("x", None)], ("gl", "hr")),
    ("antipode", "antipode of an element", [("x", None)], ("gl", "hr")),
    ("counit", "counit of an element", [("x", None)], ("gl", "hr")),
    ("grow", "leaf-growth operator", [("x", None)], ("gl", "hr")),
    ("xk", "iterated growth of the grafting unit", [("k", int)], None),
    ("delta", "iterated growth of the one-vertex tree", [("k", int)], None),
    ("mop", "chain right-multiplication operator", [("x", None)], None),
    ("lop", "root-attachment operator", [("x", None)], None),
    ("bracket", "Lie bracket of two basis elements", [("a", None), ("b", None)], None),
    ("star", "Lie star of two basis elements", [("a", None), ("b", None)], None),
    ("phi", "root deletion (primitive trees to Lie side)", [("t", None)], None),
    ("psi", "root attachment (Lie side to primitive trees)", [("t", None)], None),
    ("verify", "run a verification suite", [], None),
]


def test_parser_shape_pinned():
    """Command order, help strings, positionals and ``--algebra`` choices,
    read from the parser rather than from its version-dependent ``--help``."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    shape = []
    for name, parser in sub.choices.items():
        positionals = [(a.dest, a.type) for a in parser._actions
                       if not a.option_strings]
        algebra = [tuple(a.choices) for a in parser._actions
                   if "--algebra" in a.option_strings]
        shape.append((name, helps[name], positionals, algebra[0] if algebra else None))
    assert shape == EXPECTED_PARSER_SHAPE


def test_cli_calls_kernels_through_module_attributes(monkeypatch):
    """A kernel rebound at run time is the one called: perfbench's tracer
    counts CLI calls by rebinding module attributes the same way."""
    monkeypatch.setattr(tree_lie, "star",
                        lambda a, b: LinComb.term(parse_tree("[[[[]]]]")))
    monkeypatch.setattr(ck, "natural_growth",
                        lambda x: LinComb.term(parse_forest("[] [[]]")))
    assert ok(["star", "[]", "[]"]) == \
        '{"terms": [{"basis": "Z:[[[[]]]]", "coeff": "1"}]}'
    assert ok(["grow", "--algebra", "hr", "[]"]) == \
        '{"terms": [{"basis": "[[]] []", "coeff": "1"}]}'


def test_unexpected_exception_exits_two_with_one_line(monkeypatch):
    def raising(a, b):
        raise RuntimeError("kernel failed\non two lines")

    monkeypatch.setattr(gl, "product", raising)
    result = run(["prod", "--algebra", "gl", "[]", "[]"])
    assert result.exit_code == 2
    assert result.payload == "error: unexpected RuntimeError: kernel failed on two lines"


_CORE = {"treehopf", "treehopf.cli", "treehopf.exactlin", "treehopf.trees"}
_GL = _CORE | {"treehopf.grossman_larson"}
_OPS = _CORE | {"treehopf.operators"}
_CK = _OPS | {"treehopf.connes_kreimer"}
_SER = {"treehopf.serialize"}
_LIE = _GL | _SER | {"treehopf.tree_lie"}
_VERIFY = _CORE | {"treehopf.verify", "treehopf.laws"}
# the standard library's rationals, loaded only where a Fraction is made
_FRACTIONS = {"fractions", "decimal"}

# one call per command: its exit code and the modules loaded after it
MODULES_LOADED = [
    (["enum", "--size", "4"], 0, _CORE),
    (["enum", "--size", "30", "--count-only"], 0, _CORE),
    (["prod", "--algebra", "gl", "[[]]", "[]"], 0, _GL | _SER),
    (["prod", "--algebra", "hr", "[[]]", "[]"], 0, _CK | _SER),
    (["coprod", "--algebra", "gl", "[[]]"], 0, _GL | _SER),
    (["antipode", "--algebra", "hr", "[[]]"], 0, _CK | _SER),
    (["counit", "--algebra", "gl", "[[]]"], 0, _GL),
    (["grow", "--algebra", "gl", "[[]]"], 0, _OPS | _SER),
    (["xk", "3"], 0, _OPS | _SER),
    (["delta", "3"], 0, _CK | _SER),
    # the chain multiplication alone among the operators grafts
    (["mop", "[[]]"], 0, _OPS | _GL | _SER),
    (["lop", "[[]]"], 0, _CK | _SER),
    (["bracket", "[]", "[[]]"], 0, _LIE),
    (["star", "[]", "[[]]"], 0, _LIE),
    (["--format", "text", "phi", "[[]]"], 0, _LIE),
    (["psi", "[[]]"], 0, _LIE),
    (["prod", "--algebra", "gl", "[[", "[]"], 2, _CORE),
    # a suite loads its own laws and the kernels they read, and a clean
    # report no serialize; ``all`` loads every suite's laws.  Every quotient
    # of a suite is integral, so none loads ``fractions``
    *[(["verify", "--suite", suite, "--max-degree", "1"], 0,
       loaded | _VERIFY | {f"treehopf.laws.{s}" for s in SUITES
                           if suite in (s, "all")})
      for suite, loaded in [
          ("trees", _CORE), ("gl", _GL), ("operators", _OPS | _GL),
          ("hr", _CK), ("lie", _CK | _GL | {"treehopf.tree_lie"}),
          ("dual", _CK | _GL | {"treehopf.graded_dual"}),
          ("all", _CK | _GL | {"treehopf.tree_lie", "treehopf.graded_dual"})]],
    # a call above its ceiling is refused before any kernel module loads
    *[(argv, 2, _CORE) for argv, _, _ in ABOVE_CEILINGS],
]


def test_each_command_loads_only_its_modules(tmp_path):
    """A fresh process compiles every module it imports when no bytecode is
    cached, so a command loads only what it runs: a ``verify`` suite loads
    only its own laws and the kernels they read, ``serialize`` only for an
    input file or an output, and ``fractions`` only where a Fraction is
    made, such as a rational coefficient read from a file."""
    half = tmp_path / "half.json"
    half.write_text('{"terms": [{"basis": "[[]]", "coeff": "1/2"}]}')
    rows = MODULES_LOADED + [
        (["prod", "--algebra", "gl", f"@{half}", "[]"], 0, _GL | _SER | _FRACTIONS)]
    probe = ("import sys, json, treehopf.cli; "
             "code = treehopf.cli.run(json.loads(sys.argv[1])).exit_code; "
             "print(code, *sorted(m for m in sys.modules if m.startswith('treehopf') "
             "or m in ('fractions', 'decimal')))")
    for argv, exit_code, expected in rows:
        proc = run_python("-c", probe, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.split()
        assert int(code) == exit_code, argv
        assert set(loaded) == expected, argv
        if argv[0] != "verify":
            assert not {"treehopf.verify", "treehopf.laws",
                        "treehopf.graded_dual"} & set(loaded)
        if expected == _LIE:  # the Lie algebra needs no cut algebra
            assert not {"treehopf.connes_kreimer", "treehopf.operators"} & set(loaded)
