"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single [PASS]/[FAIL] line (run with -s or -rA to see
them); stated runtime bounds are asserted with perf_counter.
"""

import itertools
import random
import time
from fractions import Fraction

from gkmcalc.builders import complete_graph, load_graph, permutahedron
from gkmcalc.crosssection import chamber_levels, compose_transfer, single_step_transfer
from gkmcalc.demo import flag3_expected_table
from gkmcalc.errors import PolarizationError
from gkmcalc.graph import betti, longest_path_morse, polarize
from gkmcalc.interpolation import (
    matrix_product,
    partition_of_unity_sum,
    power_sum_over_differences,
    vandermonde_inverse,
    vandermonde_matrix,
)
from gkmcalc.symbolic import LinearForm, Polynomial, RationalExpr
from gkmcalc.thom import (
    ThomCalculator,
    nearby_path_configurations,
    nearby_path_identity,
)

A1 = LinearForm.make([-1, 1, 0])
A2 = LinearForm.make([0, -1, 1])

_failures: list[str] = []


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_01_flag_table_exact_and_fast(flag3):
    start = time.perf_counter()
    calc = ThomCalculator(polarize(flag3))
    expected = flag3_expected_table()
    mismatches = []
    for base in flag3.vertices:
        tau = calc.thom_class_paths(base)
        for vertex in flag3.vertices:
            want = expected[flag3.label(vertex)][flag3.label(base)]
            if tau.values[vertex] != want:
                mismatches.append((flag3.label(base), flag3.label(vertex)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: flag-variety 6x6 table entry-for-entry",
        not mismatches and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_02_flag_path_weights(flag3):
    instantiations = [(1, 2, 3), (0, 1, 3), (-1, 2, 7), (Fraction(1, 2), 1, 4)]
    ok = True
    for xi in instantiations:
        assert xi[0] < xi[1] < xi[2]
        pol = longest_path_morse(flag3, xi)
        calc = ThomCalculator(pol)
        p = flag3.vertex_by_label("(12)")
        q = flag3.vertex_by_label("(13)")
        by_middle = {
            flag3.label(flag3.edges[path[0]].target): path
            for path in calc.ascending_paths(p, q)
        }
        s1, s2 = A1.pair(pol.xi), A2.pair(pol.xi)
        w = A1.scale(s2) - A2.scale(s1)
        top = (A1 + A2).as_polynomial()
        expected_one = RationalExpr.make(A2.as_polynomial() * top * s1, [w])
        expected_two = RationalExpr.make(A1.as_polynomial() * top * (-s2), [w])
        got_one = calc.path_weight(by_middle["(231)"])
        got_two = calc.path_weight(by_middle["(312)"])
        ok = ok and got_one.equals(expected_one) and got_two.equals(expected_two)
        ok = ok and (got_one + got_two).equals(RationalExpr.from_polynomial(-top))
    report(
        "criterion 2: displayed path weights at concrete polarizations",
        ok,
        f"{len(instantiations)} instantiations",
    )


def test_criterion_03_minimum_class():
    start = time.perf_counter()
    ok = True
    for graph in [permutahedron(n) for n in (2, 3, 4)] + [
        complete_graph(n) for n in range(2, 7)
    ]:
        pol = polarize(graph)
        calc = ThomCalculator(pol)
        bottom = pol.minimum_vertices()[0]
        tau = calc.thom_class_paths(bottom)
        one = Polynomial.one(graph.dimension)
        ok = ok and all(tau.values[v] == one for v in graph.vertices)
    elapsed = time.perf_counter() - start
    report(
        "criterion 3: minimum-vertex class identically one",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s for permutahedron(2..4) and complete(2..6)",
    )


def test_criterion_04_projective_closed_form():
    ok = True
    for n in range(2, 7):
        graph = complete_graph(n)
        calc = ThomCalculator(polarize(graph))
        for i, base in enumerate(graph.vertices):
            tau = calc.thom_class_paths(base)
            for j, vertex in enumerate(graph.vertices):
                if j < i:
                    want = Polynomial.zero(n)
                else:
                    want = Polynomial.product_of_forms(
                        (LinearForm.basis(j, n) - LinearForm.basis(k, n) for k in range(i)),
                        n,
                    )
                ok = ok and tau.values[vertex] == want
    report("criterion 4: projective-space closed form", ok, "n = 2..6")


def test_criterion_05_algorithm_equivalence():
    ok = True
    graphs = [permutahedron(2), permutahedron(3)] + [complete_graph(n) for n in range(2, 7)]
    for graph in graphs:
        calc = ThomCalculator(polarize(graph))
        for base in graph.vertices:
            ok = ok and calc.thom_class_inductive(base) == calc.thom_class_paths(base)
    report(
        "criterion 5: path-sum and inductive algorithms agree",
        ok,
        "permutahedron(2..3), complete(2..6), all base vertices",
    )


def test_criterion_06_pairing_identity(flag3_calc, k5_calc):
    ok = True
    for calc in (flag3_calc, k5_calc):
        graph = calc.graph
        one = Polynomial.one(graph.dimension)
        zero = Polynomial.zero(graph.dimension)
        for p in graph.vertices:
            for q in graph.vertices:
                ok = ok and calc.pairing(p, q) == (one if p == q else zero)
    report(
        "criterion 6: ascending/descending pairing is the identity matrix",
        ok,
        "permutahedron(3) and complete(5)",
    )


def test_criterion_07_structure_constant_routes(flag3_calc):
    start = time.perf_counter()
    graph = flag3_calc.graph
    order = flag3_calc.pol.vertices_by_level()
    ok = True
    for p in order:
        for q in order:
            expansion = flag3_calc.multiplication_constants(p, q)
            for r in order:
                ok = ok and expansion[r] == flag3_calc.structure_constant(p, q, r)
    elapsed = time.perf_counter() - start
    report(
        "criterion 7: expansion coefficients equal path-class integrals",
        ok and elapsed < 30.0,
        f"216 triples in {elapsed:.1f}s",
    )


def test_criterion_08_markov_property():
    ok = True
    count = 0
    for graph in (permutahedron(3), complete_graph(4)):
        pol = polarize(graph)
        levels = chamber_levels(pol)
        for low, high in zip(levels[1:], levels[2:]):
            ok = ok and single_step_transfer(pol, low, high).is_markov()
            count += 1
        for start_index in range(1, len(levels) - 1):
            for stop_index in range(start_index + 1, len(levels)):
                matrix = compose_transfer(pol, levels[start_index], levels[stop_index])
                ok = ok and matrix.is_markov()
                count += 1
    report(
        "criterion 8: exact Markov column sums",
        ok,
        f"{count} matrices on permutahedron(3) and complete(4)",
    )


def test_criterion_09_interpolation_identities():
    rng = random.Random(2024)
    ok = True
    for n in range(2, 7):
        for _ in range(50):
            nodes = []
            seen = set()
            while len(nodes) < n:
                coeffs = (
                    Fraction(rng.randint(-9, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                )
                if coeffs in seen or coeffs == (0, 0):
                    continue
                seen.add(coeffs)
                nodes.append(LinearForm.make(coeffs))
            ok = ok and partition_of_unity_sum(nodes) == RationalExpr.one(2)
            for k in range(1, n):
                ok = ok and power_sum_over_differences(nodes, k).is_zero
            ok = ok and power_sum_over_differences(nodes, n) == RationalExpr.one(2)
    for n in range(1, 7):
        nodes = [LinearForm.basis(i, n) for i in range(n)] if n <= 4 else [
            LinearForm.make((Fraction(i + 1), Fraction(2 * i - 3), *([0] * (n - 2))))
            for i in range(n)
        ]
        product = matrix_product(vandermonde_inverse(nodes), vandermonde_matrix(nodes))
        dim = nodes[0].dim
        for i in range(n):
            for j in range(n):
                expected = RationalExpr.one(dim) if i == j else RationalExpr.zero(dim)
                ok = ok and product[i][j] == expected
    report(
        "criterion 9: interpolation and Vandermonde identities",
        ok,
        "50 random node sets per size 2..6; inverses for sizes 1..6",
    )


def test_criterion_10_nearby_path_cancellation(data_dir):
    graph = load_graph(data_dir / "square_diagonal.graph")
    calc = ThomCalculator(polarize(graph))
    configs = nearby_path_configurations(calc)
    ok = bool(configs)
    nondegenerate = 0
    for config in configs:
        ok = ok and nearby_path_identity(calc, config)
        total = calc.path_weight((config.diagonal,)) + calc.path_weight(
            (config.lower, config.upper)
        )
        if ok and total.to_polynomial().total_degree() > 0:
            nondegenerate += 1
    for n in (4, 5):
        inner = ThomCalculator(polarize(complete_graph(n)))
        for config in nearby_path_configurations(inner):
            ok = ok and nearby_path_identity(inner, config)
    report(
        "criterion 10: nearby-path cancellation identity",
        ok and nondegenerate >= 1,
        f"{len(configs)} configurations on the square-with-diagonal graph, "
        f"{nondegenerate} with nonconstant sum",
    )


def test_criterion_11_property_suite(data_dir):
    ok = True
    details = []

    # Betti invariance across at least five polarizations per built-in graph
    for graph in (complete_graph(3), complete_graph(4), complete_graph(5),
                  permutahedron(2), permutahedron(3)):
        values = set()
        used = 0
        for candidate in itertools.product((-3, -2, -1, 1, 2, 3), repeat=graph.dimension):
            try:
                values.add(betti(graph, candidate))
                used += 1
            except PolarizationError:
                continue
            if used >= 5:
                break
        ok = ok and used >= 5 and len(values) == 1
    details.append("betti invariant over >=5 polarizations")

    # unique-path index jumps, support, leading values and polynomiality
    # for every computed class
    graphs = [permutahedron(2), permutahedron(3)] + [
        complete_graph(n) for n in range(2, 6)
    ] + [load_graph(data_dir / "square_diagonal.graph")]
    for graph in graphs:
        pol = polarize(graph)
        calc = ThomCalculator(pol)
        for edge in graph.edges:
            if pol.ascending(edge.eid) and calc.has_unique_path(edge.eid):
                ok = ok and pol.sigma[edge.target] <= pol.sigma[edge.source] + 1
        for base in graph.vertices:
            flow_up = set(calc.paths_from(base))
            for vertex in graph.vertices:
                total = calc.path_sum(base, vertex)
                ok = ok and total.is_polynomial
                if vertex not in flow_up:
                    ok = ok and total.is_zero
            tau = calc.thom_class_paths(base)
            ok = ok and set(tau.support()) <= flow_up
            ok = ok and tau.values[base] == calc.nu_plus(base)
    details.append("index jump, support, leading value, polynomiality")
    report("criterion 11: property suite", ok, "; ".join(details))
