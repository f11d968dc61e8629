"""Tools outside the package must keep working against it.

``perfbench/tracer.py`` wraps the functions its ``TARGETS`` table names;
a name that no longer resolves would only fail when a traced run starts,
and one traced pass of the ``xi-check`` workload runs the wrappers and counts
one integral per structure constant or pairing that the supports leave.
``scripts/flag_products.py`` imports the package directly, so a rename in
``src/`` would only show when someone runs it.  A failing Hypothesis test
must report its falsifying example under the ``pyproject.toml`` warning
filters.  ``perfbench/reference.json``
holds the expected output of every benchmark command, at the builders'
default xi; every command is checked here against it, byte for byte.  The tracer's counters read
``Polynomial.terms``, so the view it gives is checked here too.  Commands
that the reference does not cover are checked against the sha256 of their
output.  Every
``gkmcalc`` line of the README's CLI block must run and exit 0.  Every
graph in the package is built by ``GkmGraph.from_undirected`` and no line
of it writes into a graph's connection, nor into the term numerators of a
built polynomial or linear form, whose hash is kept.  Every function, class
and method of the package is read by the package, ``perfbench/`` or
``scripts/``: reference code that only tests read lives in ``tests/``.
``cohomology`` holds classes on vertices only; levels, cut edges and
restriction to a cross-section belong to ``crosssection``.
"""

import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gkmcalc.builders import build_graph
from gkmcalc.cli import main
from gkmcalc.graph import polarize
from gkmcalc.symbolic import LinearForm, Polynomial
from gkmcalc.thom import ThomCalculator

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
REFERENCE = ROOT / "perfbench" / "reference.json"
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "gkmcalc"


def load_script(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def integrals_read(argv):
    """The integrals one xi-check command takes: one per r in up(p) & up(q)
    for structconst, one per q in up(p) for each p of a pair table."""
    options = dict(zip(argv[1::2], argv[2::2]))
    graph = build_graph(options["--graph"])
    calc = ThomCalculator(polarize(graph, [Fraction(x) for x in options["--xi"].split(",")]))
    up = {p: calc.path_counts(p).keys() for p in graph.vertices}
    if argv[0] == "structconst":
        return len(up[graph.vertex_by_label(options["--p"])] & up[graph.vertex_by_label(options["--q"])])
    return sum(map(len, up.values())) if argv[0] == "pair" else 0


@pytest.mark.parametrize("name,target", sorted(load_script("perfbench_tracer", TRACER).TARGETS.items()))
def test_tracer_target_resolves(name, target):
    # resolve the way Tracer.install does: class members through the class
    # __dict__, module-level functions through the module
    module_name, attribute = target
    module = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert member in owner.__dict__, f"{name}: {attribute} is not defined on {owner_name}"
        value = owner.__dict__[member]
        if isinstance(value, staticmethod):
            value = value.__func__
    else:
        value = getattr(module, member)
    assert callable(value), f"{name}: {attribute} is not callable"


def test_traced_pass_counts_one_integral_per_structure_constant(tmp_path):
    # a traced pass through perfbench/child.py, so that a change which
    # breaks the tracer's wrappers fails here and not only in the benchmark;
    # 111 integrals = 77 of the 216 S_3 structure constants + 19 of the 36
    # S_3 and 15 of the 25 K_5 pairings: the others are zero by support
    workloads = load_script("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    expected = sum(map(integrals_read, workloads.commands("xi-check", 1)))
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "child.py"),
            "pass",
            "--workload",
            "xi-check",
            "--seed",
            "1",
            "--trace-dir",
            str(tmp_path),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    measurement = json.loads(result.stdout.splitlines()[-1])
    assert measurement["failures"] == []
    assert measurement["layers"]["cohomology.integrate.calls"]["value"] == expected


def test_tracer_reads_polynomial_coefficients():
    # symbolic.max_coeff_bits and the term_pairs counts read Polynomial.terms
    tracer = load_script("perfbench_tracer", TRACER)
    poly = Polynomial(2, {(1, 0): Fraction(7, 12), (0, 2): Fraction(-5)})
    assert tracer._coeff_bits(poly) == 4  # 12 = 0b1100
    assert tracer._operand_terms(poly) == 2
    assert tracer._operand_terms(LinearForm([0, 3])) == 1
    assert tracer._operand_terms(Fraction(7, 12)) == 1


def test_flag_products_script_runs():
    # under -O too: the script's check must not be an assert
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    for flags in ([], ["-O"]):
        result = subprocess.run(
            [sys.executable, *flags, str(ROOT / "scripts" / "flag_products.py")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        products = re.findall(r"^tau\[[^\]]+\] \* tau\[[^\]]+\] = ", result.stdout, re.M)
        assert len(products) == 36


def test_flag_products_script_exits_1_on_a_disagreement(monkeypatch, capsys):
    # structure constants that are zero everywhere disagree with the first
    # nonzero coefficient of the expansion
    script = load_script("flag_products", ROOT / "scripts" / "flag_products.py")
    monkeypatch.setattr(
        ThomCalculator,
        "structure_constants",
        lambda self, p, q, targets: {r: Polynomial.zero(3) for r in targets},
    )
    assert script.main() == 1
    assert "but expansion 1" in capsys.readouterr().err


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, deadline=None)
def test_fails(n):
    assert n < 3
"""


def test_failing_property_reports_its_example(tmp_path):
    # the repository's warning filters stay in force; a warning raised in
    # Hypothesis's report hook must not turn the failure into INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr


@pytest.mark.parametrize("command", sorted(json.loads(REFERENCE.read_text())))
def test_command_matches_benchmark_reference(command):
    expected = json.loads(REFERENCE.read_text())[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert out.getvalue() == expected


# sha256 of the stdout of commands that perfbench/reference.json does not
# cover: RationalExpr arithmetic, engine classes whose interpolation nodes
# depend on which lower values are zero, structured output in the roots
# basis, which renders each distinct value once, and transfer matrices in the
# x basis, whose entries are sums of the edge factors Q(e, e')
RATIONAL_OUTPUTS = {
    "structconst --graph permutahedron:4 --p 2134 --q 1324": (
        "43289d290fb3bd2db466908b5e93de30af3382b73ceed81d3e61315130275448"
    ),
    "structconst --graph permutahedron:4 --p 2314 --q 1342": (
        "bb9fc099dc25ecf0c7c7be2e1fb8f3bb2f6b13ce305ae220618e2d601c0258f3"
    ),
    "structconst --graph permutahedron:4 --p 3214 --q 1432 --format structured": (
        "b4e00f7ce919c972ef0ecf70587cb7f9e70418ff65deeb6004f3b5cad68f225a"
    ),
    "pair --graph permutahedron:4": (
        "dcb5ee39702cb368a0ba44abf657cc3ba453e4542f062d13485aba8f1dcc6c19"
    ),
    "transfer --graph permutahedron:4 --format structured": (
        "26b5a55d63104c1d34dff73d7d0d932b865cfb7bf9b6ecd86b2dab61f76c6936"
    ),
    "structconst --graph complete:5 --p p2 --q p3 --format structured": (
        "1cc5a45f4bfacb6ad4d1de8e2542e54898bdb00d58cf867d1b5fe4b998334657"
    ),
    "table --graph complete:8 --format structured": (
        "0b3feaabcfc882b19bc5503d396ab4676f38d964c3b7b04726a9830e6ff5a952"
    ),
    "table --graph permutahedron:4 --format structured": (
        "8b8798417b5678a427046b74bb471fdf29a4e8b3a141847aebef76b4a6144d1a"
    ),
    "table --graph permutahedron:4 --basis x --format structured": (
        "101462d4ad53134f81f4a0dc496aec46f41497b9d10b4645bbd795520e31d1c9"
    ),
    "thom --graph permutahedron:5 --vertex 21345 --minus": (
        "ea772796d3f18f6ceb8dfd51b8fedf7f62047a6e9e2f0ff5f263f2662d5e1695"
    ),
    "table --graph permutahedron:5": (
        "191c9784d3a107902ce9b29b69ac13153b32935663d2fb8c8e298f49ae6c367d"
    ),
    "transfer --graph complete:5 --basis x": (
        "0325a11993f845b251455959ab3e885f756c60b1ca85ab7464a1a22a4ea52e06"
    ),
    "transfer --graph permutahedron:4 --basis x": (
        "b8dc9d517ad45123cac2ebd0ff2357006c210e5603419c162c9e9a64f44d623c"
    ),
    "transfer --graph complete:6 --basis x --format structured": (
        "345558f37289674fc5a73afc6847638d5fa7c42ae9eb7c776336d122c1ce39fe"
    ),
}


@pytest.mark.parametrize("command", sorted(RATIONAL_OUTPUTS))
def test_rational_command_output_unchanged(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == RATIONAL_OUTPUTS[command]


def readme_cli_lines():
    # the fenced block under the README's "## CLI" heading
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("gkmcalc ")]
    assert lines, "no gkmcalc lines in the README's CLI block"
    return lines


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example_runs(line, tmp_path):
    class_file = tmp_path / "cls.json"
    class_file.write_text(json.dumps({"p1": "x1", "p2": "x2", "p3": "x3"}))
    argv = [str(class_file) if word == "cls.json" else word for word in shlex.split(line, comments=True)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv[1:]) == 0
    if argv[1] == "betti":
        assert out.getvalue() == "1 1 1 1 1\n"  # as the README's comment says


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_graphs_are_built_one_way(path):
    tree = ast.parse(path.read_text())
    constructor = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "GkmGraph":
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name == "from_undirected":
                    constructor = {id(inner) for inner in ast.walk(method)}

    def is_connection(node):
        return isinstance(node, ast.Attribute) and node.attr == "connection"

    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            assert name != "GkmGraph" or id(node) in constructor, f"{where}: GkmGraph( outside from_undirected"
            assert not (name == "update" and is_connection(callee.value)), f"{where}: updates a connection"
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                assert not (isinstance(target, ast.Subscript) and is_connection(target.value)), (
                    f"{where}: assigns into a connection"
                )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_built_polynomials_are_not_written(path):
    # a polynomial or form keeps its hash after the first call, so its term
    # numerators `_num` are set by its constructors and never written after
    tree = ast.parse(path.read_text())
    constructors = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in ("Polynomial", "LinearForm"):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name in ("__init__", "__new__", "_canonical"):
                    constructors.update(id(inner) for inner in ast.walk(method))

    def is_num(node):
        return isinstance(node, ast.Attribute) and node.attr == "_num"

    def flat(targets):
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from flat(target.elts)
            else:
                yield target

    mutators = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in flat(targets):
                assert not (isinstance(target, ast.Subscript) and is_num(target.value)), (
                    f"{where}: writes into a built _num"
                )
                assert not is_num(target) or id(node) in constructors, f"{where}: sets _num outside a constructor"
        if isinstance(node, ast.Call):
            callee = node.func
            assert not (isinstance(callee, ast.Attribute) and callee.attr in mutators and is_num(callee.value)), (
                f"{where}: changes a built _num"
            )
            name = callee.id if isinstance(callee, ast.Name) else None
            assert not (name == "_add_into" and node.args and is_num(node.args[0])), f"{where}: adds into a built _num"


def test_package_code_is_read_outside_the_tests():
    # every module-level function and class of the package, and every
    # non-dunder method, is read by the package itself (the re-exports of
    # __init__ aside), by perfbench/ (the tracer's TARGETS strings count) or
    # by scripts/; reference code that only tests read lives in tests/
    readers = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    readers += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    targets = load_script("perfbench_tracer", TRACER).TARGETS.values()
    read.update(attribute.rpartition(".")[2] for _, attribute in targets)
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                methods = [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
                dunder = [name for name in methods if name.startswith("__") and name.endswith("__")]
                defined += [(f"{path.stem}.{node.name}.{name}", name) for name in methods if name not in dunder]
    unread = [where for where, name in defined if name not in read]
    assert not unread, f"read only by tests: {', '.join(unread)}"


def test_cohomology_holds_no_cross_section_code():
    # a class on the vertices needs no polarization: cohomology reads only
    # GkmGraph from .graph and defines none of crosssection's names
    tree = ast.parse((PACKAGE / "cohomology.py").read_text())
    from_graph = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "graph"
        for alias in node.names
    }
    assert from_graph == {"GkmGraph"}
    section = ast.parse((PACKAGE / "crosssection.py").read_text())
    owned = {"CrossSectionClass", "cut_edge_ids", "kirwan"}
    owned |= {node.name for node in section.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & owned, f"cohomology defines {sorted(defined & owned)}"
