"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every comparison is exact rational arithmetic, so there are no
numeric tolerances anywhere.
"""

import ast
import graphlib
import hashlib
import json
import sys
from pathlib import Path

import pytest

from conftest import hochschild_check, roundtrip_ok
from treehopf import connes_kreimer as ck
from treehopf import grossman_larson as gl
from treehopf import operators as ops
from treehopf import verify
from treehopf.cli import run
from treehopf.exactlin import LinComb, rank, tensor
from treehopf.trees import (LEAF, count_trees_recurrence, enumerate_trees,
                            parse_tree)

CHERRY = parse_tree("[[][]]")


@pytest.fixture(scope="module")
def reports():
    return {name: verify.run_suite(name, 5) for name in verify.SUITES}


# sha256 of each report at max_degree 5 as ``verify`` prints it
# (``json.dumps(report, sort_keys=True)`` plus a newline).  Refactors must
# keep every law, bound and checked count, so every digest must hold.
REPORT_DIGESTS = {
    "trees": "3b53ecdcc8050cdb00b77649b940cdce9df95acfd81110cb155d2944711b7bfe",
    "hr": "f5633c7be14a45d97ac5601fb0de4947b16686667c8098f8818fc669026bb000",
    "gl": "625bbcaa8461240acd90a20f3d209dc336f1cdbe511deb8fe11fbfbce9218e7e",
    "lie": "9808aea9f0e826d7d69728e3c30ee2dd72b7bbcc8fbc8acde61d697f327f7522",
    "operators": "c669f37355671f3c8c023a55a68a920dc8cd4dc16e506fa5559e3c0f3ae33f5a",
    "dual": "3a208cc8793b66595a92a1c5ac927bdf7a1ce9b5f20054c448ae2764b5d77ff7",
}


def test_verify_reports_pinned(reports):
    assert sorted(REPORT_DIGESTS) == sorted(verify.SUITES)
    for name in verify.SUITES:
        text = json.dumps(reports[name], sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[name], name


def test_dual_report_pinned_at_degree_six():
    report = verify.run_suite("dual", 6)
    assert report["checked"] == 44575
    text = json.dumps(report, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "4c9b33e0ae60212bdf6a2ca9f7d0bfe0b9fa293c9af2c815bb442e00bc959f2b"


def test_dual_report_pinned_at_degree_seven():
    # digest taken before the dual rows skipped the cases off the supports
    report = verify.run_suite("dual", 7)
    assert report["checked"] == 260690
    text = json.dumps(report, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a47331acf591ef883b250dfc598179d517ae03fdfcdc3a7fcb91da3f3f31db1e"


def test_hr_report_pinned_at_degree_six():
    # digest taken before the recursive cut kernel replaced the subset filter
    report = verify.run_suite("hr", 6)
    assert report["checked"] == 3247
    text = json.dumps(report, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6c219d73b3b41bc102f0a5a4794a982221fe2db5d491be7f301e808ae35b1284"


def test_operators_report_pinned_at_degree_six():
    # digest taken before the recursive grafting kernel replaced the
    # multiset-of-sites product
    report = verify.run_suite("operators", 6)
    assert report["checked"] == 1013
    text = json.dumps(report, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "06d1a14fcb7ab05f84f529144d69ede368f955060846d16fdb186da25942021b"


def test_gl_report_pinned_at_degree_six():
    # digest taken before the recursive grafting kernel, as above
    report = verify.run_suite("gl", 6)
    assert report["checked"] == 4721
    text = json.dumps(report, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e8fdb2e2a2a0f1b0fbfa4d6c9fdb0f706520d34cc80f6c4a0e160e54bcaecd60"


def test_trees_report_pinned_at_degree_six():
    # digest taken before trees, forests and tensors were interned
    report = verify.run_suite("trees", 6)
    assert report["checked"] == 3967
    text = json.dumps(report, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "da327d7578b47ef1d2148ae9c25085236a863756a951864fb08ba012aece0f08"


def test_lie_report_pinned_at_degree_six():
    # digest taken before trees, forests and tensors were interned
    report = verify.run_suite("lie", 6)
    assert report["checked"] == 681
    text = json.dumps(report, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "8ddfdb49a6675226f9dced114324efef9beee7bfe8732a4b9f1153661a0eb603"


def test_lie_report_pinned_at_degree_seven():
    # digest taken before the Lie star became the single-scion grafting kernel
    report = verify.run_suite("lie", 7)
    assert report["checked"] == 1704
    text = json.dumps(report, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "c092e6ee7611d11a7efcfedc228ae9fc8cfec56755fe5168e50ca6aee647105d"


def _laws(report, prefixes):
    hits = [v for v in report["violations"]
            if any(v["law"].startswith(p) for p in prefixes)]
    return hits


def test_criterion_1_enumeration():
    expected = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    assert [len(enumerate_trees(n)) for n in range(1, 11)] == expected
    assert [count_trees_recurrence(n) for n in range(1, 11)] == expected
    print("ACCEPTANCE 1 (tree counts, enumeration vs recurrence, n<=10): PASS")


def test_criterion_2_forest_hopf_axioms(reports):
    report = reports["hr"]
    prefixes = ("hr.coassociativity", "hr.counit", "hr.antipode_left",
                "hr.antipode_right", "hr.coproduct_multiplicative",
                "hr.coproduct_forms_agree")
    assert _laws(report, prefixes) == []
    assert report["checked"] > 0
    print("ACCEPTANCE 2 (forest Hopf axioms: coassoc/counit/mult at weight<=6, "
          "antipode at weight<=5, coproduct forms agree at size<=7): PASS")


def test_criterion_3_root_cocycle(reports):
    assert _laws(reports["hr"], ("hr.root_cocycle",)) == []
    e = ck.tree_monomial(LEAF)
    lhs = ck.coproduct(ck.add_root(ck.UNIT))
    assert lhs == tensor(e, ck.UNIT) + tensor(ck.UNIT, e)
    print("ACCEPTANCE 3 (root-attachment cocycle at weight<=6, plus unit case): PASS")


def test_criterion_4_grafting_hopf_axioms(reports):
    report = reports["gl"]
    assert report["violations"] == []
    print("ACCEPTANCE 4 (grafting Hopf axioms at degree<=6, associativity at "
          "total size<=8, mass conservation, cocommutativity): PASS")


def test_criterion_5_lie_isomorphism(reports):
    report = reports["lie"]
    assert report["violations"] == []
    print("ACCEPTANCE 5 (phi/psi inverse to size 7, Lie morphism and star "
          "oracle at total size<=6, Jacobi at total size<=6): PASS")


def test_criterion_6_operator_identities(reports):
    report = reports["operators"]
    assert report["violations"] == []
    # binomial coproduct and alternating antipode explicitly through m = 6
    from math import comb
    for m in range(7):
        expected = LinComb.zero()
        for i in range(m + 1):
            expected = expected + comb(m, i) * tensor(ops.x_k(i), ops.x_k(m - i))
        assert gl.coproduct(ops.x_k(m)) == expected
        assert gl.antipode(ops.x_k(m)) == (-1) ** m * ops.x_k(m)
    assert rank([ops.x_k(m) for m in range(7)]) == 7
    print("ACCEPTANCE 6 (growth/chain operator identities at stated bounds, "
          "binomial coproduct and alternating antipode to m=6): PASS")


def test_criterion_7_dual_cocycle_and_mutation():
    report = hochschild_check(4)
    assert report["violations"] == [] and report["checked"] > 0

    def perturb(target, image):
        def action(t):
            return image if t == target else ops.m_tree(t)
        return action

    mutations = [
        perturb(LEAF, LinComb.term(ops.CHAIN2)),
        perturb(ops.CHAIN2, LinComb.zero()),
        perturb(CHERRY, ops.m_tree(CHERRY) + LinComb.term(LEAF)),
    ]
    for action in mutations:
        assert len(hochschild_check(4, action)["violations"]) >= 1
    print("ACCEPTANCE 7 (dual cocycle exact at degree bound 4; each mutation "
          "of the operator produces violations): PASS")


def test_criterion_8_delta_span_closure():
    for k in range(1, 5):
        assert ck.delta_coproduct_membership(k) is not None
    generators = [ck.delta_monomial(p) for p in ck.partitions(3)]
    assert rank(generators) == 3
    assert rank(generators + [ck.tree_monomial(CHERRY)]) == 4
    assert ck.delta_membership(ck.tree_monomial(CHERRY), 3) is None
    print("ACCEPTANCE 8 (delta-span closure of the coproduct at weights<=4; "
          "negative control matches the rank computation): PASS")


def test_criterion_9_cli_contract(cli_corpus):
    first = [run(argv) for argv, _ in cli_corpus]
    second = [run(argv) for argv, _ in cli_corpus]
    for (argv, family), a, b in zip(cli_corpus, first, second):
        assert a.exit_code == 0, (argv, a.payload)
        assert a.payload == b.payload, argv
        if family is not None:
            assert roundtrip_ok(a.payload, family), argv
    result = run(["verify", "--suite", "all", "--max-degree", "5"])
    assert result.exit_code == 0
    report = json.loads(result.payload)
    assert report["violations"] == [] and report["suite"] == "all"
    print("ACCEPTANCE 9 (50-invocation corpus deterministic with exact "
          "round-trips; verify --suite all --max-degree 5 exits 0): PASS")


def test_runtime_imports_are_stdlib_only():
    sources = sorted((Path(__file__).parents[1] / "src" / "treehopf").rglob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
    print("ACCEPTANCE (every absolute import in src/treehopf is in the "
          "standard library): PASS")


def test_only_exactlin_imports_fractions():
    """A computed ``Fraction`` comes only from ``exactlin.ratio``: no other
    module imports ``fractions``, at top level or inside a function."""
    package = Path(__file__).parents[1] / "src" / "treehopf"
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if "fractions" in names:
                importers.add(path.relative_to(package).as_posix())
    assert importers == {"exactlin.py"}


def test_only_cli_main_ends_the_process():
    """``os._exit`` skips teardown, and with it the flush of every stream, so
    it has one home: ``cli.main``, which flushes both streams first.  No
    other function, in ``cli`` or any other module, calls it."""
    package = Path(__file__).parents[1] / "src" / "treehopf"
    callers = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if getattr(func, "attr", getattr(func, "id", None)) == "_exit":
                callers.add((path, scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, path, getattr(child, "name", "<lambda>") if named else scope)

    for path in package.rglob("*.py"):
        visit(ast.parse(path.read_text(), str(path)),
              path.relative_to(package).as_posix(), "<module>")
    assert callers == {("cli.py", "main")}


def test_module_imports_are_acyclic():
    package = Path(__file__).parents[1] / "src" / "treehopf"

    def name_of(path):  # "trees", "laws", "laws.dual"; the package is "__init__"
        parts = path.relative_to(package).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" and len(parts) > 1
                        else parts)

    paths = {name_of(path): path for path in package.rglob("*.py")}
    modules = set(paths)
    # module -> the modules it imports relatively, at top level or inside a
    # function, each ``..`` resolved; a name that is not a module comes from
    # the package that holds it
    graph = {}
    for name, path in paths.items():
        here = list(path.relative_to(package).parent.parts)  # where "." starts
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            base = here[:len(here) - node.level + 1]
            if node.module:
                imported.add(".".join(base + node.module.split(".")))
            else:
                for alias in node.names:
                    target = ".".join(base + [alias.name])
                    imported.add(target if target in modules
                                 else ".".join(base) or "__init__")
        graph[name] = imported
    assert {"graded_dual", "operators"} <= graph["laws.dual"]
    assert "operators" in graph["laws.operators"]
    assert graph["tree_lie"] == {"exactlin", "grossman_larson", "trees"}
    assert "verify" in graph["cli"]  # imported inside a function
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as error:
        pytest.fail(f"import cycle: {' -> '.join(error.args[1])}")
    assert set(order) == modules
    assert [name for name in sorted(graph) if "verify" in graph[name]] == ["cli"]
    print("ACCEPTANCE (the relative imports in src/treehopf form no cycle, "
          "and only cli imports verify): PASS")


def test_exported_names_resolve():
    """Every name in ``treehopf.__all__`` is bound, once, so that
    ``from treehopf import *`` does not break on a stale entry."""
    import treehopf
    names = treehopf.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(treehopf, name)] == []
    namespace: dict = {}
    exec("from treehopf import *", namespace)
    assert set(names) <= namespace.keys()
