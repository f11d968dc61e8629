"""The worked-example suite: flag variety of SL(3), projective spaces,
nearby-path cancellations, and the minimum-vertex class.

Each check recomputes a published quantity from scratch and compares
exactly; the CLI `demo` subcommand prints one line per check and exits
nonzero if any fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .builders import complete_graph, permutahedron
from .cohomology import kirwan
from .crosssection import chamber_levels, compose_transfer, transport_class
from .graph import polarize
from .symbolic import LinearForm, Polynomial, RationalExpr
from .thom import ThomCalculator, nearby_path_configurations, nearby_path_identity


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _flag3_calculator() -> ThomCalculator:
    graph = permutahedron(3)
    return ThomCalculator(polarize(graph))


def check_longest_path_global() -> CheckResult:
    """On a longest ascending path every local intersection number is global,
    hence polynomial; self-indexing makes each one a constant."""
    calc = _flag3_calculator()
    pol = calc.pol
    graph = calc.graph
    bottom = pol.minimum_vertices()[0]
    top = max(graph.vertices, key=lambda v: pol.level(v))
    paths = calc.ascending_paths(bottom, top)
    longest = max(paths, key=len)
    for eid in longest:
        iota = calc.iota(eid)
        if not iota.is_global:
            return CheckResult("longest-path globality", False, f"{graph.edges[eid].key()} not global")
        if not iota.value.is_polynomial:
            return CheckResult("longest-path globality", False, f"{graph.edges[eid].key()} not polynomial")
        if pol.self_indexing and iota.value.num.total_degree() > 0:
            return CheckResult("longest-path globality", False, f"{graph.edges[eid].key()} not constant")
    return CheckResult("longest-path globality", True, f"longest path of length {len(longest)}")


def check_nearby_paths() -> CheckResult:
    """E(diagonal) + E(two-step) = nu_q/(alpha_e alpha_e'') on every
    triangle configuration of the complete graphs on 4 and 5 vertices."""
    total = 0
    for n in (4, 5):
        calc = ThomCalculator(polarize(complete_graph(n)))
        configs = nearby_path_configurations(calc)
        if not configs:
            return CheckResult("nearby-path cancellation", False, f"no configurations in K{n}")
        for config in configs:
            if not nearby_path_identity(calc, config):
                return CheckResult(
                    "nearby-path cancellation",
                    False,
                    f"fails at ({config.p},{config.r},{config.q}) in K{n}",
                )
            total += 1
    return CheckResult("nearby-path cancellation", True, f"{total} configurations")


def flag3_expected_table() -> dict[str, dict[str, Polynomial]]:
    """The published 6x6 table of Thom classes for the flag variety of SL(3),
    built directly from the simple-root forms."""
    a1 = LinearForm([-1, 1, 0]).as_polynomial()
    a2 = LinearForm([0, -1, 1]).as_polynomial()
    zero = Polynomial.zero(3)
    one = Polynomial.one(3)
    return {
        "1": {"1": one, "(12)": zero, "(23)": zero, "(231)": zero, "(312)": zero, "(13)": zero},
        "(12)": {"1": one, "(12)": -a1, "(23)": zero, "(231)": zero, "(312)": zero, "(13)": zero},
        "(23)": {"1": one, "(12)": zero, "(23)": -a2, "(231)": zero, "(312)": zero, "(13)": zero},
        "(231)": {
            "1": one, "(12)": -a1 - a2, "(23)": -a2,
            "(231)": a2 * (a1 + a2), "(312)": zero, "(13)": zero,
        },
        "(312)": {
            "1": one, "(12)": -a1, "(23)": -a1 - a2,
            "(231)": zero, "(312)": a1 * (a1 + a2), "(13)": zero,
        },
        "(13)": {
            "1": one, "(12)": -a1 - a2, "(23)": -a1 - a2,
            "(231)": a2 * (a1 + a2), "(312)": a1 * (a1 + a2),
            "(13)": -a1 * a2 * (a1 + a2),
        },
    }


def check_flag_table() -> CheckResult:
    """The six Thom classes of the flag variety of SL(3), entry for entry."""
    calc = _flag3_calculator()
    graph = calc.graph
    expected = flag3_expected_table()
    for base in graph.vertices:
        tau = calc.thom_class_paths(base)
        for vertex in graph.vertices:
            want = expected[graph.label(vertex)][graph.label(base)]
            if tau.values[vertex] != want:
                return CheckResult(
                    "flag-variety table",
                    False,
                    f"tau_{graph.label(base)}({graph.label(vertex)}) = "
                    f"{tau.values[vertex]} expected {want}",
                )
    return CheckResult("flag-variety table", True, "36 entries")


def check_flag_path_weights() -> CheckResult:
    """The two path weights from (12) to (13) and their polynomial sum."""
    calc = _flag3_calculator()
    graph = calc.graph
    pol = calc.pol
    a1 = LinearForm([-1, 1, 0])
    a2 = LinearForm([0, -1, 1])
    s1, s2 = a1.pair(pol.xi), a2.pair(pol.xi)
    denominator = a1.scale(s2) - a2.scale(s1)
    p = graph.vertex_by_label("(12)")
    q = graph.vertex_by_label("(13)")
    by_middle = {
        graph.label(graph.edges[path[0]].target): path
        for path in calc.ascending_paths(p, q)
    }
    if set(by_middle) != {"(231)", "(312)"}:
        return CheckResult("flag-variety path weights", False, f"paths via {sorted(by_middle)}")
    got_one = calc.path_weight(by_middle["(231)"])
    got_two = calc.path_weight(by_middle["(312)"])
    sum_poly = (a1 + a2).as_polynomial()
    expected_one = RationalExpr.make(a2.as_polynomial() * sum_poly * s1, [denominator])
    expected_two = RationalExpr.make(a1.as_polynomial() * sum_poly * (-s2), [denominator])
    if got_one != expected_one:
        return CheckResult("flag-variety path weights", False, f"E(gamma_1) = {got_one}")
    if got_two != expected_two:
        return CheckResult("flag-variety path weights", False, f"E(gamma_2) = {got_two}")
    if got_one + got_two != RationalExpr(-sum_poly):
        return CheckResult("flag-variety path weights", False, "sum is not -a1-a2")
    return CheckResult("flag-variety path weights", True, "E(gamma_1), E(gamma_2) and their sum")


def check_minimum_class() -> CheckResult:
    """tau at the index-zero vertex is identically one, and the transfer
    sweep from just above the minimum reproduces it via the Markov property."""
    for spec, graph in (("permutahedron(3)", permutahedron(3)), ("complete(5)", complete_graph(5))):
        pol = polarize(graph)
        calc = ThomCalculator(pol)
        bottom = pol.minimum_vertices()[0]
        tau = calc.thom_class_paths(bottom)
        one = Polynomial.one(graph.dimension)
        if any(tau.values[v] != one for v in graph.vertices):
            return CheckResult("minimum class", False, f"{spec}: tau not identically 1")
        levels = chamber_levels(pol)
        matrix = compose_transfer(pol, levels[1], levels[-1])
        if not matrix.is_markov():
            return CheckResult("minimum class", False, f"{spec}: transfer not Markov")
        seed = kirwan(tau, pol, levels[1])
        moved = transport_class(seed, levels[-1])
        if moved != kirwan(tau, pol, levels[-1]):
            return CheckResult("minimum class", False, f"{spec}: transported seed differs")
        # per-vertex partition of unity: the transfer weights of the edges
        # arriving at any non-minimal vertex sum to one
        for vertex in graph.vertices:
            if vertex == bottom:
                continue
            total = RationalExpr.zero(graph.dimension)
            for down in pol.descending_out(vertex):
                total = total + calc.q_edge(graph.reverse(down))
            if total != RationalExpr.one(graph.dimension):
                return CheckResult(
                    "minimum class", False, f"{spec}: weight sum at {graph.label(vertex)}"
                )
    return CheckResult("minimum class", True, "permutahedron(3) and complete(5)")


def check_projective_closed_form() -> CheckResult:
    """tau_{p_i}(p_j) on the complete graph is the product of the weights
    joining p_j to p_1..p_{i-1}."""
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
                        (LinearForm.basis(j, n) - LinearForm.basis(k, n) for k in range(i)), n
                    )
                if tau.values[vertex] != want:
                    return CheckResult(
                        "projective-space closed form",
                        False,
                        f"n={n}, tau_{base}({vertex})",
                    )
    return CheckResult("projective-space closed form", True, "n = 2..6")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_longest_path_global,
    check_nearby_paths,
    check_flag_table,
    check_flag_path_weights,
    check_minimum_class,
    check_projective_closed_form,
)


def run_demo() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
