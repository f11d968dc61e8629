"""Tools outside the package must keep working against it.

``perfbench/tracer.py`` wraps the functions its ``TARGETS`` table names;
a name that no longer resolves would only fail when a traced run starts,
and one traced pass of the ``xi-check`` workload runs the wrappers.
``scripts/flag_products.py`` imports the package directly, so a rename in
``src/`` would only show when someone runs it.  A failing Hypothesis test
must report its falsifying example under the ``pyproject.toml`` warning
filters.  ``perfbench/reference.json``
holds the expected output of every benchmark command, at the builders'
default xi; every command is checked here against it, byte for byte.  The tracer's counters read
``Polynomial.terms``, so the view it gives is checked here too.  Three
commands dominated by rational-expression arithmetic that the reference
does not cover are checked against the sha256 of their output.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gkmcalc.cli import main
from gkmcalc.symbolic import LinearForm, Polynomial

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
REFERENCE = ROOT / "perfbench" / "reference.json"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("name,target", sorted(load_tracer().TARGETS.items()))
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
    # 277 integrals = 216 structure constants + 36 S_3 and 25 K_5 pairings
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
    assert measurement["layers"]["cohomology.integrate.calls"]["value"] == 277


def test_tracer_reads_polynomial_coefficients():
    # symbolic.max_coeff_bits and the term_pairs counts read Polynomial.terms
    tracer = load_tracer()
    poly = Polynomial(2, {(1, 0): Fraction(7, 12), (0, 2): Fraction(-5)})
    assert tracer._coeff_bits(poly) == 4  # 12 = 0b1100
    assert tracer._operand_terms(poly) == 2
    assert tracer._operand_terms(LinearForm([0, 3])) == 1
    assert tracer._operand_terms(Fraction(7, 12)) == 1


def test_flag_products_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "flag_products.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    products = re.findall(r"^tau\[[^\]]+\] \* tau\[[^\]]+\] = ", result.stdout, re.M)
    assert len(products) == 36


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
# depend on which lower values are zero, and structured output in the roots
# basis, which renders each distinct value once
RATIONAL_OUTPUTS = {
    "structconst --graph permutahedron:4 --p 2134 --q 1324": (
        "43289d290fb3bd2db466908b5e93de30af3382b73ceed81d3e61315130275448"
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
}


@pytest.mark.parametrize("command", sorted(RATIONAL_OUTPUTS))
def test_rational_command_output_unchanged(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == RATIONAL_OUTPUTS[command]
