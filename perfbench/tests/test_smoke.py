"""Smoke tests for the benchmark itself, at tiny sizes (verify at degree 3).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from run import Client, Finished
from speed import REF_S, reference_s
from tracer import Tracer
from workloads import (PINNED_DIGESTS, count_trees, digest_check, lincomb_check,
                       oneshot_invocations)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", [w["name"] for w in _bench_spec()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_harness_runs_end_to_end(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _bench_spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in expected]
    if trace:
        assert result["metrics"]["cli.run.calls"]["value"] >= 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_harness_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grafting", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_counts_calls_made_through_rebound_names(monkeypatch):
    import treehopf.cli  # noqa: F401  (loads every module)
    from treehopf import grossman_larson as gl
    from treehopf import operators, trees

    original = trees.graft_many
    monkeypatch.delattr(operators, "x_k")
    a = trees.parse_tree("[[[][]][[]]]")        # root fertility 2
    b = trees.parse_tree("[[[[]]][][]]")        # 6 vertices: 6**2 grafts
    tracer = Tracer()
    tracer.install()
    try:
        assert gl.graft_many is not original and gl.graft_many.__wrapped__ is original
        gl.tree_product.cache_clear()
        tracer.begin_run()
        first = gl.tree_product(a, b)
        assert gl.tree_product(a, b) is first
    finally:
        tracer.uninstall()
    assert gl.graft_many is original and trees.graft_many is original

    totals = tracer.layer_totals()
    assert totals["layers"]["grossman_larson.tree_product"]["calls"] == 2
    assert totals["layers"]["trees.graft_many"]["calls"] == 36
    assert totals["caches"]["grossman_larson.tree_product"] == {"hits": 1, "misses": 1}
    assert totals["constructed"]["trees.Tree"] > 0
    assert "operators.x_k" in totals["absent"]
    product_id = tracer.names.index("grossman_larson.tree_product")
    graft_id = tracer.names.index("trees.graft_many")
    for name_id, parent in zip(tracer.name_ids, tracer.parents):
        if name_id == graft_id:
            assert tracer.name_ids[parent] == product_id
    layer = totals["layers"]["grossman_larson.tree_product"]
    assert 0 <= layer["self_s"] <= tracer.ends[0] - tracer.starts[0]


@pytest.mark.parametrize("suite", ["operators", "hr", "dual"])
def test_tracing_leaves_reports_byte_identical(suite, tmp_path):
    argv = ["verify", "--suite", suite, "--max-degree", "3"]
    plain = subprocess.run([sys.executable, "-m", "treehopf", *argv], env=ENV, cwd=ROOT,
                           capture_output=True, timeout=120, check=True)
    traced = subprocess.run(
        [sys.executable, os.path.join(BENCH, "traced_child.py"), str(tmp_path / "s.json"),
         str(tmp_path / "spans.bin"), "--", *argv],
        env=ENV, cwd=ROOT, capture_output=True, timeout=120, check=True)
    assert traced.stdout == plain.stdout
    assert digest_check(PINNED_DIGESTS[suite, 3])(plain.stdout.decode()[:-1]) is None
    with open(tmp_path / "s.json", encoding="utf-8") as handle:
        assert json.load(handle)["layers"]["verify.run_suite"]["calls"] == 1


def test_scaling_uses_the_references_around_each_call():
    assert 0 < reference_s() < 60
    client = Client(deadline=0.0, scale=False)
    client.refs = [(0.0, 0.2), (2.0, 0.1), (4.0, 0.3), (10.0, 0.5)]
    first = Finished(0, "", "", start=0.2, wall_s=1.5, maxrss_mb=0.0)
    later = Finished(0, "", "", start=4.5, wall_s=4.0, maxrss_mb=0.0)
    assert client.scaled(first) == pytest.approx(1.5 * REF_S / 0.15)     # refs 1-2
    assert client.scaled(later) == pytest.approx(4.0 * REF_S / 0.4)      # refs 3-4


def test_checks_have_teeth():
    report = '{"checked": 1, "maxDegree": 1, "suite": "trees", "violations": []}'
    assert digest_check("0" * 64)(report) is not None
    good = '{"terms": [{"basis": "[[][]]", "coeff": "1/2"}, {"basis": "[[]]", "coeff": "2"}]}'
    assert lincomb_check(Fraction(5, 2))(good) is None
    assert lincomb_check(Fraction(3))(good) is not None
    assert lincomb_check(None)(good.replace('"1/2"', '"2/4"')) is not None
    assert lincomb_check(None)(good.replace(", ", ",")) is not None
    text = "1/2*[[][]] + 2*[[]]"
    assert lincomb_check(Fraction(5, 2), text=True)(text) is None
    assert lincomb_check(Fraction(3), text=True)(text) is not None
    assert lincomb_check(None, text=True)(text.replace("1/2", "2/4")) is not None
    assert lincomb_check(None, text=True)("2*[[]] + 1/2*[[][]]") is not None
    assert [count_trees(n) for n in range(1, 11)] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def test_oneshot_inputs_depend_only_on_the_seed(tmp_path):
    def argvs(seed, sub):
        (tmp_path / sub).mkdir()
        return [inv.argv for inv in oneshot_invocations(seed, str(tmp_path / sub))]

    first, again, other = argvs(3, "a"), argvs(3, "b"), argvs(4, "c")
    strip = lambda runs: [[a.rsplit("/", 1)[-1] for a in argv] for argv in runs]  # noqa: E731
    assert strip(first) == strip(again) and strip(first) != strip(other)
    assert len(first) >= 100
