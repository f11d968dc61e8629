import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gkmcalc import thom as thom_module
from gkmcalc.builders import build_graph, complete_graph, load_graph, permutahedron
from gkmcalc.cohomology import cocycle_witness, integrate
from gkmcalc.demo import flag3_expected_table
from gkmcalc.errors import PolarizationError
from gkmcalc.graph import longest_path_morse, polarize
from gkmcalc.render import to_root_basis
from gkmcalc.symbolic import LinearForm, Polynomial, RationalExpr, rho_poly
from gkmcalc.thom import (
    ThomCalculator,
    _flip_flop,
    nearby_path_configurations,
    nearby_path_identity,
)
from oracles import lagrange_interpolate, rho_form

DATA = Path(__file__).parent / "data"
A1 = LinearForm([-1, 1, 0])
A2 = LinearForm([0, -1, 1])


def connection_cancelled_theta(calc, eid):
    """The paper's Theta_pq for an ascending edge e = p -> q:
    rho_e(prod E_pq) / rho_e(prod E_qp), with E_pq the descending edges at p
    whose connection image is not descending at q and E_qp the descending
    edges at q, other than the reversal, whose image under the reverse
    connection is not descending at p."""
    graph, pol = calc.graph, calc.pol
    edge = graph.edges[eid]
    rev = edge.reverse_id
    p_desc = set(pol.descending_out(edge.source))
    q_desc = set(pol.descending_out(edge.target))
    top = [e for e in p_desc if graph.theta(eid, e) not in q_desc]
    bottom = [e for e in q_desc if e != rev and graph.theta(rev, e) not in p_desc]
    return RationalExpr.of_forms(
        [rho_form(graph.weight(e), edge.weight, pol.xi) for e in top],
        [rho_form(graph.weight(e), edge.weight, pol.xi) for e in bottom],
        graph.dimension,
    )


def brute_force_paths(graph, pol, start, end):
    """Independent recursive enumeration of ascending paths."""
    found = []

    def walk(vertex, trail):
        if vertex == end:
            found.append(tuple(trail))
        for eid in graph.out_edges(vertex):
            if pol.ascending(eid):
                trail.append(eid)
                walk(graph.edges[eid].target, trail)
                trail.pop()

    walk(start, [])
    return sorted(found)


def over(expr, forms):
    """expr divided by the product of forms."""
    return RationalExpr.make(expr.num, [f for f, m in expr.den for _ in range(m)] + list(forms))


class TestAscendingPaths:
    def test_flag_variety_two_paths(self, flag3_calc):
        graph = flag3_calc.graph
        p = graph.vertex_by_label("(12)")
        q = graph.vertex_by_label("(13)")
        paths = flag3_calc.ascending_paths(p, q)
        middles = sorted(graph.label(graph.edges[path[0]].target) for path in paths)
        assert middles == ["(231)", "(312)"]
        assert all(len(path) == 2 for path in paths)

    def test_empty_path_at_base(self, flag3_calc):
        base = flag3_calc.graph.vertices[0]
        assert flag3_calc.ascending_paths(base, base) == [()]

    def test_complete_four_count(self):
        graph = complete_graph(4)
        pol = polarize(graph)
        calc = ThomCalculator(pol)
        paths = calc.ascending_paths("p1", "p4")
        assert len(paths) == 4  # direct, via p2, via p3, via p2 and p3
        assert sorted(paths) == brute_force_paths(graph, pol, "p1", "p4")

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_brute_force(self, n):
        graph = permutahedron(n) if n == 3 else complete_graph(n)
        pol = polarize(graph)
        calc = ThomCalculator(pol)
        for p in graph.vertices:
            for q in graph.vertices:
                assert sorted(calc.ascending_paths(p, q)) == brute_force_paths(
                    graph, pol, p, q
                )

    @pytest.mark.parametrize(
        "spec", ["permutahedron:3", "permutahedron:4", "complete:5", "square_diagonal.graph"]
    )
    def test_counts_match_enumeration(self, data_dir, spec):
        graph = load_graph(data_dir / spec) if spec.endswith(".graph") else build_graph(spec)
        calc = ThomCalculator(polarize(graph))
        for p in graph.vertices:
            assert calc.path_counts(p) == {
                q: (len(paths), max(map(len, paths))) for q, paths in calc.paths_from(p).items()
            }
        for eid in (e.eid for e in graph.edges if calc.pol.ascending(e.eid)):
            edge = graph.edges[eid]
            assert calc.has_unique_path(eid) == (
                calc.ascending_paths(edge.source, edge.target) == [(eid,)]
            )

    def test_only_the_paths_below_the_end_are_listed(self):
        # on S_5 one ascending path joins 12345 to 21345, while 432,001 leave
        # 12345: listing the paths into 21345 lists only those below its level
        calc = ThomCalculator(polarize(permutahedron(5)))
        edge = calc.graph.edge_between("12345", "21345")
        assert calc.pol.ascending(edge)
        assert calc.path_counts("12345")["21345"] == (1, 1)
        assert calc.ascending_paths("12345", "21345") == [(edge,)]
        engine = calc.thom_class_inductive("12345").values["21345"]
        assert engine == Polynomial.one(5)
        assert calc.path_sum("12345", "21345") == engine

    def test_path_budget_counts_before_listing(self, monkeypatch):
        # S_5 holds 162,482 ascending paths from the bottom to the top and
        # 432,001 from the bottom to anywhere: both are counted, and refused,
        # before a single step of the enumeration is taken
        from gkmcalc.errors import PathBudgetError
        from gkmcalc.graph import Polarization

        calc = ThomCalculator(polarize(permutahedron(5)))
        order = calc.pol.vertices_by_level()

        def refuse(self, vertex):
            raise AssertionError("an enumeration step was taken")

        monkeypatch.setattr(Polarization, "ascending_out", refuse)
        with pytest.raises(
            PathBudgetError,
            match=r"^listing the paths from 12345 to 54321 needs 162482 ascending paths, "
            r"over the budget of 20000$",
        ):
            calc.path_sum(order[0], order[-1])
        with pytest.raises(PathBudgetError, match=r"^listing the paths from 12345 needs 432001 "):
            calc.paths_from(order[0])


class TestTheta:
    def test_flag_variety_values(self, flag3_calc):
        graph = flag3_calc.graph
        pol = flag3_calc.pol
        one = graph.vertex_by_label("1")
        top = graph.vertex_by_label("(13)")
        for edge in graph.edges:
            if not pol.ascending(edge.eid):
                continue
            theta = flag3_calc.theta(edge.eid)
            if edge.source == one and edge.target == top:
                s1, s2 = A1.pair(pol.xi), A2.pair(pol.xi)
                w = A1.scale(s2) - A2.scale(s1)
                expected = RationalExpr.make(
                    Polynomial.constant(-((s1 + s2) ** 2), 3), [w, w]
                )
                assert theta == expected
            else:
                assert theta == RationalExpr.one(3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: permutahedron(3),
            lambda: complete_graph(5),
            lambda: permutahedron(4),
            lambda: load_graph(DATA / "square_diagonal.graph"),
        ],
    )
    def test_cancelled_equals_uncancelled(self, build):
        # theta, the raw quotient, against the paper's connection-cancelled
        # form under both polarizations
        graph = build()
        forward = ThomCalculator(polarize(graph))
        for calc in (forward, forward.reversed_calculator()):
            for edge in graph.edges:
                if calc.pol.ascending(edge.eid):
                    assert calc.theta(edge.eid) == connection_cancelled_theta(calc, edge.eid)

    def test_orientation_symmetry(self, flag3_calc):
        # Theta computed for the reversed edge under the reversed
        # polarization equals Theta for the edge itself
        rev = flag3_calc.reversed_calculator()
        graph = flag3_calc.graph
        for edge in graph.edges:
            if flag3_calc.pol.ascending(edge.eid):
                assert flag3_calc.theta(edge.eid) == rev.theta(edge.reverse_id)


class TestIota:
    def test_trivial_theta_gives_scalar(self, flag3_calc):
        graph = flag3_calc.graph
        pol = flag3_calc.pol
        p = graph.vertex_by_label("(12)")
        q = graph.vertex_by_label("(231)")
        eid = graph.edge_between(p, q)
        expected = RationalExpr(
            Polynomial.constant(Fraction(1) / pol.pairings[eid], 3)
        )
        assert flag3_calc.iota(eid) == expected

    def test_globality_flags(self, flag3_calc):
        graph = flag3_calc.graph
        one = graph.vertex_by_label("1")
        top = graph.vertex_by_label("(13)")
        for edge in graph.edges:
            if not flag3_calc.pol.ascending(edge.eid):
                continue
            if edge.source == one and edge.target == top:
                # longer paths from 1 to the top exist
                assert not flag3_calc.has_unique_path(edge.eid)
            else:
                assert flag3_calc.has_unique_path(edge.eid)
                assert flag3_calc.iota(edge.eid).is_polynomial

    def test_self_indexing_global_iotas_are_constants(self, flag3_calc):
        for edge in flag3_calc.graph.edges:
            if flag3_calc.pol.ascending(edge.eid) and flag3_calc.has_unique_path(edge.eid):
                assert flag3_calc.iota(edge.eid).to_polynomial().total_degree() <= 0


def expected_flag_path_weights(pol):
    """The two displayed path weights from (12) to (13), built literally."""
    s1, s2 = A1.pair(pol.xi), A2.pair(pol.xi)
    w = A1.scale(s2) - A2.scale(s1)
    top = (A1 + A2).as_polynomial()
    via_231 = RationalExpr.make(A2.as_polynomial() * top * s1, [w])
    via_312 = RationalExpr.make(A1.as_polynomial() * top * (-s2), [w])
    return via_231, via_312


class TestPathWeight:
    @pytest.mark.parametrize("xi", [(1, 2, 3), (1, 2, 4), (0, 3, 5), (-2, 1, 7)])
    def test_flag_variety_displayed_weights(self, flag3, xi):
        pol = longest_path_morse(flag3, xi)
        calc = ThomCalculator(pol)
        p = flag3.vertex_by_label("(12)")
        q = flag3.vertex_by_label("(13)")
        by_middle = {
            flag3.label(flag3.edges[path[0]].target): path
            for path in calc.ascending_paths(p, q)
        }
        via_231, via_312 = expected_flag_path_weights(pol)
        assert calc.path_weight(by_middle["(231)"]) == via_231
        assert calc.path_weight(by_middle["(312)"]) == via_312
        total = calc.path_weight(by_middle["(231)"]) + calc.path_weight(by_middle["(312)"])
        assert total == RationalExpr(-(A1 + A2).as_polynomial())

    def test_single_edge_form(self, flag3_calc):
        # E(gamma) = (nu_q / -alpha_e) * Theta for a one-edge path
        graph = flag3_calc.graph
        for edge in graph.edges:
            if not flag3_calc.pol.ascending(edge.eid):
                continue
            expected = (
                RationalExpr.make(
                    flag3_calc.nu_plus(edge.target), [edge.weight]
                )
                * flag3_calc.theta(edge.eid)
                * Fraction(-1)
            )
            assert flag3_calc.path_weight((edge.eid,)) == expected

    def test_path_splitting(self, k5_calc):
        # E(gamma)/nu_p = E(gamma')/nu_p * E(gamma'')/nu_q *
        #                 alpha_last / rho_first(alpha_last)
        rng = random.Random(5)
        graph = k5_calc.graph
        pol = k5_calc.pol
        paths = [
            path
            for q in graph.vertices
            for path in k5_calc.ascending_paths("p1", q)
            if len(path) >= 2
        ]
        for path in rng.sample(paths, min(8, len(paths))):
            for cut in range(1, len(path)):
                first, second = path[:cut], path[cut:]
                middle = graph.edges[first[-1]].target
                glue_num = graph.weight(first[-1])
                glue_den = rho_form(glue_num, graph.weight(second[0]), pol.xi)
                left = over(k5_calc.path_weight(path), k5_calc.nu_factors("p1"))
                right = (
                    over(k5_calc.path_weight(first), k5_calc.nu_factors("p1"))
                    * over(k5_calc.path_weight(second), k5_calc.nu_factors(middle))
                    * RationalExpr.make(glue_num.as_polynomial(), [glue_den])
                )
                assert left == right

    def test_reversal_relation(self, flag3_calc):
        # E(reversed gamma) = -(ahat_m/ahat_1)(nu_p^-/nu_q^+) E(gamma);
        # derived from the edge-product form by flipping every edge (the
        # rho quotients contribute (-1)^{m-1} s_1/s_m, the last-edge weight
        # a further -s_m/s_1 relative to the first)
        graph = flag3_calc.graph
        pol = flag3_calc.pol
        rev = flag3_calc.reversed_calculator()
        p = graph.vertex_by_label("(12)")
        q = graph.vertex_by_label("(13)")
        for path in flag3_calc.ascending_paths(p, q):
            reversed_path = tuple(graph.reverse(e) for e in reversed(path))
            first, last = path[0], path[-1]
            ahat_1 = graph.weight(first).scale(1 / pol.pairings[first])
            ahat_m = graph.weight(last).scale(1 / pol.pairings[last])
            factor = over(
                RationalExpr.make(rev.nu_plus(p) * ahat_m.as_polynomial(), [ahat_1]) * Fraction(-1),
                flag3_calc.nu_factors(q),
            )
            assert rev.path_weight(reversed_path) == factor * flag3_calc.path_weight(path)

    def test_reversed_class_of_maximum_is_unit(self, flag3_calc):
        # consistency anchor for the reversal sign: summing the reversed
        # weights over the descending paths from the top reproduces the
        # constant class exactly
        graph = flag3_calc.graph
        pol = flag3_calc.pol
        top = max(graph.vertices, key=lambda v: pol.level(v))
        tau = flag3_calc.reversed_calculator().thom_class_paths(top)
        assert all(value == Polynomial.one(3) for value in tau.values.values())

    def test_empty_path_rejected(self, flag3_calc):
        with pytest.raises(ValueError):
            flag3_calc.path_weight(())

    def test_route_disagreement_trap_fires(self, monkeypatch):
        # corrupt one transfer weight of this calculator: the two evaluation
        # routes then disagree and the cross-validation must raise rather
        # than return a wrong value
        from gkmcalc.errors import InternalConsistencyError

        graph = permutahedron(3)
        calc = ThomCalculator(polarize(graph))
        p = graph.vertex_by_label("(12)")
        q = graph.vertex_by_label("(13)")
        path = calc.ascending_paths(p, q)[0]
        original = calc.q_edge
        monkeypatch.setattr(
            calc, "q_edge", lambda eid: original(eid) * 2 if eid == path[-1] else original(eid)
        )
        with pytest.raises(InternalConsistencyError):
            calc.path_weight(path)


class TestThomClassPaths:
    def test_flag_variety_table(self, flag3_calc):
        graph = flag3_calc.graph
        expected = flag3_expected_table()
        for base in graph.vertices:
            tau = flag3_calc.thom_class_paths(base)
            assert cocycle_witness(graph, tau.values) is None
            for vertex in graph.vertices:
                assert tau.values[vertex] == expected[graph.label(vertex)][graph.label(base)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_minimum_class_is_one_permutahedron(self, n):
        graph = permutahedron(n)
        pol = polarize(graph)
        calc = ThomCalculator(pol)
        bottom = pol.minimum_vertices()[0]
        tau = calc.thom_class_paths(bottom)
        assert all(value == Polynomial.one(n) for value in tau.values.values())

    def test_minimum_class_is_one_s4(self, s4_calc):
        bottom = s4_calc.pol.minimum_vertices()[0]
        tau = s4_calc.thom_class_paths(bottom)
        assert all(value == Polynomial.one(4) for value in tau.values.values())

    @pytest.mark.parametrize("n", range(2, 7))
    def test_projective_closed_form(self, n):
        graph = complete_graph(n)
        calc = ThomCalculator(polarize(graph))
        for i, base in enumerate(graph.vertices):
            tau = calc.thom_class_paths(base)
            for j, vertex in enumerate(graph.vertices):
                if j < i:
                    expected = Polynomial.zero(n)
                else:
                    expected = Polynomial.product_of_forms(
                        (
                            LinearForm.basis(j, n) - LinearForm.basis(k, n)
                            for k in range(i)
                        ),
                        n,
                    )
                assert tau.values[vertex] == expected

    def test_support_and_leading_value(self, flag3_calc):
        graph = flag3_calc.graph
        pol = flag3_calc.pol
        for base in graph.vertices:
            tau = flag3_calc.thom_class_paths(base)
            flow_up = set(flag3_calc.paths_from(base))
            assert {v for v, value in tau.values.items() if not value.is_zero} <= flow_up
            assert tau.values[base] == flag3_calc.nu_plus(base)
            for vertex, value in tau.values.items():
                assert value.homogeneous_degree() in (-1, pol.sigma[base])

    @pytest.mark.parametrize("spec", ["permutahedron:3", "complete:5", "square_diagonal"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_carried_sums_equal_enumerated_sums(self, data_dir, spec, reverse):
        if spec == "square_diagonal":
            graph = load_graph(data_dir / "square_diagonal.graph")
        else:
            graph = build_graph(spec)
        calc = ThomCalculator(polarize(graph))
        if reverse:
            calc = calc.reversed_calculator()
        for base in graph.vertices:
            tau = calc.thom_class_paths(base)
            for vertex in graph.vertices:
                assert tau.values[vertex] == calc.path_sum(base, vertex).to_polynomial()

    def test_route_disagreement_names_the_base(self, monkeypatch):
        # one transfer factor off by two: the closed sums of the two routes
        # then differ, and the class must not be returned
        from gkmcalc.errors import InternalConsistencyError

        original = ThomCalculator.q_edge
        monkeypatch.setattr(ThomCalculator, "q_edge", lambda self, eid: original(self, eid) * 2)
        graph = permutahedron(3)
        calc = ThomCalculator(polarize(graph))
        with pytest.raises(
            InternalConsistencyError, match=r"^transfer path sum .* of \(12\) differ at \(231\) for xi="
        ):
            calc.thom_class_paths(graph.vertex_by_label("(12)"))

    def test_intersection_route_disagreement_names_the_route(self, monkeypatch):
        # one intersection-number factor off by two: that route's sums
        # differ from the engine's class, and the error says which route
        from gkmcalc.errors import InternalConsistencyError

        original = ThomCalculator._iota_close
        monkeypatch.setattr(
            ThomCalculator, "_iota_close", lambda self, eid: original(self, eid) * 2
        )
        graph = permutahedron(3)
        calc = ThomCalculator(polarize(graph))
        with pytest.raises(
            InternalConsistencyError,
            match=r"^intersection path sum .* of \(12\) differ at \(231\) for xi=\(1, 2, 3\): ",
        ):
            calc.thom_class_paths(graph.vertex_by_label("(12)"))

    @pytest.mark.parametrize("spec", ["permutahedron:3", "complete:5"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_returns_the_engine_class(self, spec, reverse):
        # the path sums only verify: every Thom class is the engine's object
        graph = build_graph(spec)
        calc = ThomCalculator(polarize(graph))
        if reverse:
            calc = calc.reversed_calculator()
        for base in graph.vertices:
            assert calc.thom_class_paths(base) is calc.thom_class_inductive(base)

    def test_engine_disagreement_names_the_base(self, monkeypatch):
        # the engine's class off at one vertex: the path class, and every
        # structure constant built from it, must raise rather than return
        from gkmcalc.cohomology import CohomologyClass
        from gkmcalc.errors import InternalConsistencyError

        graph = permutahedron(3)
        base = graph.vertex_by_label("(12)")
        top = graph.vertex_by_label("(13)")
        for check in (
            lambda calc: calc.thom_class_paths(base),
            lambda calc: calc.structure_constant(base, base, top),
        ):
            calc = ThomCalculator(polarize(graph))
            right = calc.thom_class_inductive(base)
            wrong = CohomologyClass(graph, {**right.values, top: right.values[top] * 2})
            monkeypatch.setattr(calc, "thom_class_inductive", lambda vertex: wrong)
            with pytest.raises(InternalConsistencyError, match=r"of \(12\) differ at \(13\)"):
                check(calc)

    def test_calculator_is_freed_without_the_collector(self):
        # the memo lives on the instance and links nothing back to it, so
        # reference counting alone frees a calculator and its reversal
        import gc
        import weakref

        graph = permutahedron(3)
        base = graph.vertex_by_label("(12)")
        gc.disable()
        try:
            calc = ThomCalculator(polarize(graph))
            calc.thom_class_paths(base)
            calc.reversed_calculator().thom_class_paths(base)
            refs = [weakref.ref(calc), weakref.ref(calc.reversed_calculator())]
            del calc
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestThomClassInductive:
    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_paths_permutahedron(self, n):
        graph = permutahedron(n)
        calc = ThomCalculator(polarize(graph))
        for base in graph.vertices:
            assert calc.thom_class_inductive(base) == calc.thom_class_paths(base)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_agrees_with_paths_complete(self, n):
        graph = complete_graph(n)
        calc = ThomCalculator(polarize(graph))
        for base in graph.vertices:
            assert calc.thom_class_inductive(base) == calc.thom_class_paths(base)

    def test_base_case_values(self, flag3_calc):
        graph = flag3_calc.graph
        pol = flag3_calc.pol
        base = graph.vertex_by_label("(231)")
        tau = flag3_calc.thom_class_inductive(base)
        assert tau.values[base] == flag3_calc.nu_plus(base)
        for vertex in graph.vertices:
            if pol.level(vertex) < pol.level(base):
                assert tau.values[vertex].is_zero

    def test_agrees_with_paths_square_diagonal(self, data_dir):
        graph = load_graph(data_dir / "square_diagonal.graph")
        calc = ThomCalculator(polarize(graph))
        for base in graph.vertices:
            assert calc.thom_class_inductive(base) == calc.thom_class_paths(base)

    @pytest.mark.parametrize("xi", [(1, 3, 7), (2, 5, 11)])
    def test_agrees_with_paths_chamber_xi(self, xi):
        graph = permutahedron(3)
        calc = ThomCalculator(polarize(graph, xi))
        for base in graph.vertices:
            assert calc.thom_class_inductive(base) == calc.thom_class_paths(base)

    def test_agrees_with_paths_s4(self, s4_calc):
        # the 24-vertex Cayley graph: every base vertex, both algorithms
        for base in s4_calc.pol.vertices_by_level():
            assert s4_calc.thom_class_inductive(base) == s4_calc.thom_class_paths(base)

    @pytest.mark.parametrize("spec", ["permutahedron:4", "complete:5"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_equals_the_interpolant_through_every_edge(self, spec, reverse):
        # the engine interpolates through sigma_base + 1 descending edges;
        # the Newton form through all of them must give the same value
        calc = ThomCalculator(polarize(build_graph(spec)))
        if reverse:
            calc = calc.reversed_calculator()
        graph, pol = calc.graph, calc.pol
        for base in graph.vertices:
            values = calc.thom_class_inductive(base).values
            for vertex in graph.vertices:
                if pol.level(vertex) <= pol.level(base):
                    continue
                descending = pol.descending_out(vertex)
                incoming = [
                    rho_poly(values[graph.edges[e].target], graph.weight(e), pol.xi)
                    for e in descending
                ]
                assert _flip_flop(calc, vertex, descending, incoming, {}) == values[vertex]

    def test_rho_poly_calls_per_vertex(self, monkeypatch):
        # each reached vertex above the base maps the nonzero ones among its
        # first sigma_base + 1 lower values, the zero ones sorted first; a
        # zero lower value maps to zero without rho_poly, and each
        # (lower value, weight) of one class is mapped once
        inputs = []
        monkeypatch.setattr(
            thom_module,
            "rho_poly",
            lambda poly, weight, xi: inputs.append((poly, weight)) or rho_poly(poly, weight, xi),
        )
        calc = ThomCalculator(polarize(permutahedron(4)))
        graph, pol = calc.graph, calc.pol
        total = 0
        for base in pol.vertices_by_level():
            del inputs[:]
            values = calc.thom_class_inductive(base).values
            pairs = set()
            for vertex in calc.path_counts(base):
                if vertex == base:
                    continue
                lower = [(values[graph.edges[e].target], graph.weight(e)) for e in pol.descending_out(vertex)]
                nonzero = [pair for pair in lower if not pair[0].is_zero]
                used = min(len(lower), pol.sigma[base] + 1)
                pairs.update(nonzero[: max(0, used - (len(lower) - len(nonzero)))])
            assert len(inputs) == len(pairs)
            assert set(inputs) == pairs
            total += len(pairs)
        # 195 once per vertex, 545 with the zero inputs, 778 through every
        # descending edge
        assert total == 107

    # all classes together; one division per step and per edge made 942 on
    # permutahedron:4, and complete:5 and F_2 repeat no pair
    @pytest.mark.parametrize("spec, total", [("permutahedron:4", 463), ("complete:5", 40), ("F_2", 9)])
    def test_divide_linear_calls_per_class(self, spec, total, hirzebruch, monkeypatch):
        # one division per distinct (difference, gap) in the flip-flops of a
        # class, and per distinct (source value, target value, weight) on
        # the edges with unequal endpoint values in its cocycle check
        graph = hirzebruch(2) if spec == "F_2" else build_graph(spec)
        divide = Polynomial.divide_linear
        calls, flips = [], []
        monkeypatch.setattr(
            Polynomial, "divide_linear", lambda poly, form: calls.append((poly, form)) or divide(poly, form)
        )
        monkeypatch.setattr(
            thom_module,
            "_flip_flop",
            lambda calc, vertex, descending, values, quotients: (
                flips.append((descending, values)) or _flip_flop(calc, vertex, descending, values, quotients)
            ),
        )
        calc = ThomCalculator(polarize(graph))
        xi = calc.pol.xi
        counted = 0
        for base in calc.pol.vertices_by_level():
            del calls[:], flips[:]
            values = calc.thom_class_inductive(base).values
            steps = set()
            for descending, incoming in flips:
                nodes = [graph.weight(e).scale(1 / graph.weight(e).pair(xi)) for e in descending]
                table = list(incoming)
                for i in range(1, len(nodes)):
                    for j in range(len(nodes) - 1, i - 1, -1):
                        difference = table[j] - table[j - 1]
                        if not difference.is_zero:
                            gap = nodes[j] - nodes[j - i]
                            steps.add((difference, gap))
                            difference = divide(difference, gap)
                        table[j] = difference
            checks = {
                (values[edge.source], values[edge.target], edge.weight)
                for edge in graph.edges
                if edge.eid % 2 == 0 and values[edge.source] != values[edge.target]
            }
            assert len(calls) == len(steps) + len(checks)
            counted += len(calls)
        assert counted == total

    @pytest.mark.parametrize("spec, checks", [("permutahedron:4", 189), ("complete:5", 10), ("F_2", 5)])
    def test_value_is_the_lagrange_interpolant_through_every_descending_edge(self, spec, checks, hirzebruch):
        # an oracle that shares no step with the engine's Newton form: at a
        # vertex v above the base that the base reaches, the constant
        # coefficient g_1 of the Lagrange interpolant through all the nodes
        # ahat_e = alpha_e/alpha_e(xi) of the descending edges e at v, with
        # the values rho_e(tau(lower end of e)), is tau(v)
        graph = hirzebruch(2) if spec == "F_2" else build_graph(spec)
        calc = ThomCalculator(polarize(graph))
        pol = calc.pol
        made = 0
        for base in graph.vertices:
            tau = calc.thom_class_inductive(base).values
            reached, stack = {base}, [base]
            while stack:
                heads = {graph.edges[e].target for e in pol.ascending_out(stack.pop())} - reached
                reached |= heads
                stack += heads
            for vertex in reached - {base}:
                descending = pol.descending_out(vertex)
                nodes = [graph.weight(e).scale(1 / pol.pairings[e]) for e in descending]
                values = [rho_poly(tau[graph.edges[e].target], graph.weight(e), pol.xi) for e in descending]
                assert lagrange_interpolate(list(zip(nodes, values)))[0] == RationalExpr(tau[vertex])
                made += 1
        assert made == checks

    def test_equal_gaps_are_one_object(self, s4_calc):
        # pairs of descending edges with equal node differences share one
        # gap, which builds its division data once
        graph, pol = s4_calc.graph, s4_calc.pol
        gaps, pairs = {}, 0
        for vertex in graph.vertices:
            for first, second in itertools.permutations(pol.descending_out(vertex), 2):
                hats = (s4_calc._hat(graph.weight(first)), s4_calc._hat(graph.weight(second)))
                gap = s4_calc._gap(*hats)
                assert gaps.setdefault(gap, gap) is gap
                pairs += 1
        assert len(gaps) < pairs

    def test_inhomogeneous_class_names_the_base(self, monkeypatch):
        # a flip-flop off by a constant is not homogeneous; with the cocycle
        # check made to pass, the degree check must still catch it.  Above
        # (231) only the top vertex is interpolated, so no later division
        # sees the wrong value first.
        from gkmcalc.errors import InternalConsistencyError

        monkeypatch.setattr(thom_module, "cocycle_witness", lambda graph, values: None)
        monkeypatch.setattr(thom_module, "_flip_flop", lambda *args: _flip_flop(*args) + 1)
        graph = permutahedron(3)
        calc = ThomCalculator(polarize(graph))
        with pytest.raises(
            InternalConsistencyError, match=r"^Thom class of \(231\) is not homogeneous of degree 2$"
        ):
            calc.thom_class_inductive(graph.vertex_by_label("(231)"))

    def test_refuses_a_class_interpolation_does_not_fix(self):
        # P^2 blown up at two points: D has one descending edge, too few to
        # fix the degree-one value of tau_E there
        calc = ThomCalculator(polarize(load_graph(DATA / "pentagon.graph")))
        with pytest.raises(PolarizationError, match=r"^Thom class of E is not fixed at D: degree 1 needs 2 "):
            calc.thom_class_inductive("E")
        x1, x2 = (LinearForm.basis(i, 2).as_polynomial() for i in range(2))
        zero = Polynomial.zero(2)
        expected = {"A": zero, "B": -x1, "C": x2 - x1, "D": zero, "E": zero}
        assert calc.thom_class_inductive("B").values == expected


class TestChamberInvariance:
    """Inside one chamber a Thom class does not depend on xi, an oracle
    that reads neither route's formulas: xi' = 3 xi + e_n/7 and
    xi'' = 2 xi - e_1/5 keep every edge's orientation on these graphs, and
    every class must come out the same.  On the pentagon the class of E is
    refused at all three vectors instead."""

    @pytest.mark.parametrize(
        "spec",
        [
            "permutahedron:3",
            "permutahedron:4",
            *(f"complete:{n}" for n in range(3, 7)),
            "square_diagonal.graph",
            "F_2",
            "pentagon.graph",
        ],
    )
    def test_classes_are_the_same_across_the_chamber(self, spec, hirzebruch):
        refused = {"E"} if spec == "pentagon.graph" else set()
        if spec == "F_2":
            graph = hirzebruch(2)
        else:
            graph = load_graph(DATA / spec) if spec.endswith(".graph") else build_graph(spec)
        default = polarize(graph)
        xi, last = list(default.xi), graph.dimension - 1
        moved = [
            [3 * c + (Fraction(1, 7) if k == last else 0) for k, c in enumerate(xi)],
            [2 * c - (Fraction(1, 5) if k == 0 else 0) for k, c in enumerate(xi)],
        ]
        calcs = [ThomCalculator(default)]
        for vector in moved:
            pol = polarize(graph, vector)
            assert [pol.ascending(e.eid) for e in graph.edges] == [default.ascending(e.eid) for e in graph.edges]
            calcs.append(ThomCalculator(pol))
        for base in graph.vertices:
            if graph.label(base) in refused:
                for calc in calcs:
                    with pytest.raises(PolarizationError, match=f"^Thom class of {graph.label(base)} "):
                        calc.thom_class_inductive(base)
                continue
            first, *others = (calc.thom_class_inductive(base) for calc in calcs)
            assert all(other == first for other in others)


class TestWeylAction:
    """The Weyl group permutes the chambers of xi and carries the Thom basis
    of one chamber to that of another (Tymoczko, "Permutation actions on
    equivariant cohomology of flag varieties", Contemp. Math. 460, 2008), an
    oracle that reads neither route's formulas.  A graph automorphism g that
    moves the weights by x_k -> x_{position[k]} maps the class of p for xi,
    at q, to the class of g(p) for xi' (xi_k moved to position[k]), at g(q).
    Each chamber's classes are computed by the engine and compared with the
    default chamber's classes moved."""

    @staticmethod
    def moved(poly, position):
        terms = {}
        for expo, c in poly.terms.items():
            image = [0] * poly.dim
            for k, e in enumerate(expo):
                image[position[k]] = e
            terms[tuple(image)] = c
        return Polynomial(poly.dim, terms)

    def check(self, default, vertex_map, position):
        graph = default.graph
        xi = [0] * graph.dimension
        for k, c in enumerate(default.pol.xi):
            xi[position[k]] = c
        calc = ThomCalculator(polarize(graph, xi))
        for p in graph.vertices:
            image = calc.thom_class_inductive(vertex_map[p]).values
            for q, value in default.thom_class_inductive(p).values.items():
                assert image[vertex_map[q]] == self.moved(value, position)

    @pytest.mark.parametrize("n", [3, 4])
    def test_permutahedron_every_chamber(self, n):
        # pi -> pi u: digit k of the image is digit u(k) of pi, and the
        # weights move by x_k -> x_{u^-1(k)}
        default = ThomCalculator(polarize(permutahedron(n)))
        for u in itertools.permutations(range(n)):
            vertex_map = {v: "".join(v[u[k]] for k in range(n)) for v in default.graph.vertices}
            self.check(default, vertex_map, [u.index(k) for k in range(n)])

    def test_complete_five(self):
        # sigma maps p_i to p_sigma(i) and x_i to x_sigma(i)
        default = ThomCalculator(polarize(complete_graph(5)))
        for sigma in itertools.permutations(range(5)):
            self.check(default, {f"p{i + 1}": f"p{sigma[i] + 1}" for i in range(5)}, sigma)


class TestThomMinus:
    def test_maximum_class_is_one(self, flag3_calc):
        graph = flag3_calc.graph
        pol = flag3_calc.pol
        top = max(graph.vertices, key=lambda v: pol.level(v))
        tau = flag3_calc.thom_class_minus(top)
        assert all(value == Polynomial.one(3) for value in tau.values.values())

    def test_leading_value_is_ascending_product(self, flag3_calc):
        graph = flag3_calc.graph
        for base in graph.vertices:
            tau = flag3_calc.thom_class_minus(base)
            expected = Polynomial.product_of_forms(
                (graph.weight(e) for e in flag3_calc.pol.ascending_out(base)), 3
            )
            assert tau.values[base] == expected

    @pytest.mark.parametrize("build", [lambda: permutahedron(3), lambda: complete_graph(5)])
    def test_engine_agrees_with_reversed_paths(self, build):
        graph = build()
        calc = ThomCalculator(polarize(graph))
        reversed_calc = calc.reversed_calculator()
        for base in graph.vertices:
            assert calc.thom_class_minus(base) == reversed_calc.thom_class_paths(base)


class TestPairing:
    def test_flag_variety_identity(self, flag3_calc):
        graph = flag3_calc.graph
        for p in graph.vertices:
            for q in graph.vertices:
                expected = Polynomial.one(3) if p == q else Polynomial.zero(3)
                assert flag3_calc.pairing(p, q) == expected

    def test_complete_five_identity(self, k5_calc):
        graph = k5_calc.graph
        for p in graph.vertices:
            for q in graph.vertices:
                expected = Polynomial.one(5) if p == q else Polynomial.zero(5)
                assert k5_calc.pairing(p, q) == expected

    def test_diagonal_support(self, flag3_calc):
        graph = flag3_calc.graph
        p = graph.vertex_by_label("(231)")
        product = flag3_calc.thom_class_paths(p) * flag3_calc.thom_class_minus(p)
        assert [v for v in graph.vertices if not product.values[v].is_zero] == [p]
        assert integrate(product) == Polynomial.one(3)


class TestStructureConstants:
    def test_no_configuration_gives_zero(self, flag3_calc):
        graph = flag3_calc.graph
        top = graph.vertex_by_label("(13)")
        one = graph.vertex_by_label("1")
        # gamma_3 must descend from 1, so t = 1; but nothing ascends from
        # the top vertex to 1
        assert flag3_calc.structure_constant(top, top, one).is_zero

    def test_pairing_specialization(self, flag3_calc):
        graph = flag3_calc.graph
        pol = flag3_calc.pol
        bottom = pol.minimum_vertices()[0]
        for p in graph.vertices:
            value = flag3_calc.structure_constant(p, bottom, p)
            assert value == Polynomial.one(3)

    def test_simple_product(self, flag3_calc):
        graph = flag3_calc.graph
        p = graph.vertex_by_label("(12)")
        q = graph.vertex_by_label("(23)")
        coefficients = flag3_calc.multiplication_constants(p, q)
        nonzero = {
            graph.label(r): value for r, value in coefficients.items() if not value.is_zero
        }
        assert nonzero == {
            "(231)": Polynomial.one(3),
            "(312)": Polynomial.one(3),
        }
        for r in graph.vertices:
            assert flag3_calc.structure_constant(p, q, r) == coefficients[r]


class TestStructureConstantRegions:
    """Each class is checked by its path sums where the integrand of c_pq^r
    can be nonzero: tau_p^+ and tau_q^+ on down(r), tau_r^- on
    up(p) & up(q).  The engine's class of one base is corrupted at one
    vertex, by adding its leading value there."""

    @staticmethod
    def corrupted(monkeypatch, calc, base, vertex):
        from gkmcalc.cohomology import CohomologyClass

        engine = calc.thom_class_inductive
        right = engine(base)
        values = {**right.values, vertex: right.values[vertex] + calc.nu_plus(base)}
        assert values[vertex] != right.values[vertex]
        wrong = CohomologyClass(calc.graph, values)
        monkeypatch.setattr(calc, "thom_class_inductive", lambda v: wrong if v == base else engine(v))

    @staticmethod
    def calculators(*labels):
        graph = permutahedron(3)
        calc = ThomCalculator(polarize(graph))
        return calc, calc.reversed_calculator(), [graph.vertex_by_label(label) for label in labels]

    def test_minus_class_inside_its_region_is_checked(self, monkeypatch):
        from gkmcalc.errors import InternalConsistencyError

        calc, rev, (p, q, r, v) = self.calculators("(12)", "(23)", "(13)", "(231)")
        assert v in calc.path_counts(p) and v in calc.path_counts(q) and v in rev.path_counts(r)
        self.corrupted(monkeypatch, rev, r, v)
        with pytest.raises(
            InternalConsistencyError,
            match=r"^intersection path sum and engine Thom classes of \(13\) differ at \(231\) for xi=",
        ):
            calc.structure_constant(p, q, r)

    def test_plus_class_inside_its_region_is_checked(self, monkeypatch):
        from gkmcalc.errors import InternalConsistencyError

        calc, rev, (p, q, r, v) = self.calculators("(12)", "(23)", "(231)", "(231)")
        assert v in calc.path_counts(p) and v in rev.path_counts(r)
        self.corrupted(monkeypatch, calc, p, v)
        with pytest.raises(
            InternalConsistencyError,
            match=r"^intersection path sum and engine Thom classes of \(12\) differ at \(231\) for xi=",
        ):
            calc.structure_constant(p, q, r)

    @pytest.mark.parametrize("minus", [False, True])
    def test_corruption_outside_every_region_fails_the_whole_class(self, monkeypatch, minus):
        # c_pq^r with p = q = r = (12): the integral reads tau^+ on
        # down(12) = {1, (12)} and tau^- on up(12); (13) lies above (12)
        # and 1 below it, so neither corrupted value is read there
        from gkmcalc.errors import InternalConsistencyError

        calc, rev, (base, v) = self.calculators("(12)", "1" if minus else "(13)")
        expected = ThomCalculator(calc.pol).structure_constant(base, base, base)
        owner = rev if minus else calc
        assert v in owner.path_counts(base)
        self.corrupted(monkeypatch, owner, base, v)
        assert calc.structure_constant(base, base, base) == expected
        label = "1" if minus else r"\(13\)"
        with pytest.raises(InternalConsistencyError, match=rf"of \(12\) differ at {label} for xi="):
            owner.thom_class_paths(base)

    @pytest.mark.parametrize("spec", ["permutahedron:3", "complete:5"])
    def test_one_call_equals_the_single_entries(self, spec):
        calc = ThomCalculator(polarize(build_graph(spec)))
        vertices = calc.graph.vertices
        for p, q in itertools.product(vertices, repeat=2):
            expected = {r: ThomCalculator(calc.pol).structure_constant(p, q, r) for r in vertices}
            assert calc.structure_constants(p, q, vertices) == expected


def built_classes(calc):
    """{("+" or "-", base)} of the engine classes a calculator has built."""
    sides = [("+", calc), ("-", calc._memo.get(("reversed_calculator", ())))]
    return {
        (side, args[0])
        for side, owner in sides
        if owner is not None
        for name, args in owner._memo
        if name == "thom_class_inductive"
    }


class TestIntegralsOffTheSupports:
    """c_pq^r and the pairing of p with q, against the localization integrals
    of the engine's classes taken at every r and q.  tau_p^+ vanishes off
    up(p) and tau_r^- off down(r), so the constants skip the r outside
    up(p) & up(q), and the pairing the q outside up(p); no class is built
    for a skipped one."""

    @pytest.fixture(params=["permutahedron:3", "permutahedron:4", "complete:5", "hirzebruch:2"])
    def case(self, request, hirzebruch):
        spec = request.param
        graph = hirzebruch(2) if spec == "hirzebruch:2" else build_graph(spec)
        pairs = list(itertools.product(graph.vertices, repeat=2))
        if spec == "permutahedron:4":
            pairs = random.Random(2026).sample(pairs, 20)
        return polarize(graph), pairs

    def test_structure_constants_equal_the_integrals(self, case):
        pol, pairs = case
        oracle = ThomCalculator(pol)
        plus, minus = oracle.thom_class_inductive, oracle.thom_class_minus
        vertices = pol.graph.vertices
        skipped = 0
        for p, q in pairs:
            calc = ThomCalculator(pol)
            constants = calc.structure_constants(p, q, vertices)
            assert list(constants) == list(vertices)
            assert constants == {r: integrate(plus(p) * plus(q) * minus(r)) for r in vertices}
            read = calc.path_counts(p).keys() & calc.path_counts(q).keys()
            assert built_classes(calc) == {("+", p), ("+", q)} | {("-", r) for r in read}
            skipped += len(vertices) - len(read)
        assert skipped > 0

    def test_pairings_equal_the_integrals(self, case):
        pol, pairs = case
        oracle = ThomCalculator(pol)
        skipped = 0
        for p, q in pairs:
            calc = ThomCalculator(pol)
            expected = integrate(oracle.thom_class_inductive(p) * oracle.thom_class_minus(q))
            assert calc.pairing(p, q) == expected
            if q not in calc.path_counts(p):
                assert built_classes(calc) == set()
                skipped += 1
        assert skipped > 0

    def test_no_target_read_builds_no_class(self, flag3_calc):
        graph = flag3_calc.graph
        top, one = graph.vertex_by_label("(13)"), graph.vertex_by_label("1")
        calc = ThomCalculator(flag3_calc.pol)
        assert calc.structure_constants(top, top, [one]) == {one: Polynomial.zero(3)}
        assert built_classes(calc) == set()


class TestUnknownVertices:
    """A name that is not a vertex raises GraphError naming it, before a
    support is read, so it is never taken for a zero."""

    @pytest.mark.parametrize("position", range(3))
    def test_structure_constants(self, flag3_calc, position):
        from gkmcalc.errors import GraphError

        names = ["213", "132", "321"]
        names[position] = "(12)"  # a label, not a vertex name
        with pytest.raises(GraphError, match=r"^unknown vertex '\(12\)'$"):
            flag3_calc.structure_constants(names[0], names[1], ["123", names[2]])

    @pytest.mark.parametrize("p,q", [("nowhere", "321"), ("123", "nowhere")])
    def test_pairing(self, flag3_calc, p, q):
        from gkmcalc.errors import GraphError

        with pytest.raises(GraphError, match=r"^unknown vertex 'nowhere'$"):
            flag3_calc.pairing(p, q)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_thom_class_inductive(self, flag3_calc, reverse):
        from gkmcalc.errors import GraphError

        calc = flag3_calc.reversed_calculator() if reverse else flag3_calc
        with pytest.raises(GraphError, match=r"^unknown vertex 'nowhere'$"):
            calc.thom_class_inductive("nowhere")


class TestWithoutConnection:
    @pytest.mark.parametrize("spec", ["permutahedron:3", "complete:5", "square_diagonal"])
    def test_classes_and_constants_do_not_read_the_connection(self, spec):
        # the connection is left to validation, derivation, the nearby-path
        # triangles and totally geodesic subgraphs
        def calculator(clear):
            if spec == "square_diagonal":
                graph = load_graph(DATA / "square_diagonal.graph")
            else:
                graph = build_graph(spec)
            if clear:
                graph.connection.clear()
            return ThomCalculator(polarize(graph))

        intact, bare = calculator(False), calculator(True)
        vertices = intact.graph.vertices
        for kept, cleared in ((intact, bare), (intact.reversed_calculator(), bare.reversed_calculator())):
            for base in vertices:
                for name in ("thom_class_paths", "thom_class_inductive"):
                    expected = getattr(kept, name)(base).values
                    assert getattr(cleared, name)(base).values == expected
        for p, q, r in itertools.product(vertices, repeat=3):
            assert bare.structure_constant(p, q, r) == intact.structure_constant(p, q, r)


class TestExpansion:
    def test_indicator(self, flag3_calc):
        graph = flag3_calc.graph
        base = graph.vertex_by_label("(312)")
        coefficients = flag3_calc.expand_in_thom_basis(flag3_calc.thom_class_paths(base))
        for vertex, value in coefficients.items():
            expected = Polynomial.one(3) if vertex == base else Polynomial.zero(3)
            assert value == expected

    def test_unit_expands_at_minimum(self, flag3_calc):
        from gkmcalc.cohomology import constant_class

        pol = flag3_calc.pol
        bottom = pol.minimum_vertices()[0]
        coefficients = flag3_calc.expand_in_thom_basis(constant_class(flag3_calc.graph))
        for vertex, value in coefficients.items():
            expected = Polynomial.one(3) if vertex == bottom else Polynomial.zero(3)
            assert value == expected

    def test_product_closure_degrees(self, flag3_calc):
        graph = flag3_calc.graph
        pol = flag3_calc.pol
        for p in graph.vertices:
            for q in graph.vertices:
                product = flag3_calc.thom_class_paths(p) * flag3_calc.thom_class_paths(q)
                coefficients = flag3_calc.expand_in_thom_basis(product)
                for r, value in coefficients.items():
                    if value.is_zero:
                        continue
                    expected = pol.sigma[p] + pol.sigma[q] - pol.sigma[r]
                    assert value.homogeneous_degree() == expected

    def test_outside_span_reported(self, flag3_calc):
        from gkmcalc.cohomology import CohomologyClass
        from gkmcalc.errors import SpanError

        graph = flag3_calc.graph
        values = {v: Polynomial.zero(3) for v in graph.vertices}
        values[graph.vertex_by_label("(13)")] = Polynomial.one(3)
        with pytest.raises(SpanError):
            flag3_calc.expand_in_thom_basis(CohomologyClass(graph, values))


class TestGrahamPositivity:
    """Graham (Duke 2001): every c_pq^r of the flag variety is a polynomial
    with nonnegative coefficients in the simple roots alpha_i = x_i - x_{i+1}.
    to_root_basis writes it in a_i = x_{i+1} - x_i = -alpha_i, so a constant
    of degree d has coefficients (-1)^d times those in the alpha_i."""

    @pytest.mark.parametrize("n,nonzero", [(3, 44), (4, 1105)])
    def test_structure_constants_are_positive(self, n, nonzero):
        calc = ThomCalculator(polarize(permutahedron(n)))
        vertices = calc.graph.vertices
        constants = [
            value
            for p in vertices
            for q in vertices
            for value in calc.multiplication_constants(p, q).values()
            if not value.is_zero
        ]
        assert len(constants) == nonzero
        for value in constants:
            sign = (-1) ** value.homogeneous_degree()
            assert all(sign * c > 0 for c in to_root_basis(value).terms.values()), value


class TestNearbyPaths:
    @pytest.mark.parametrize("n", [4, 5])
    def test_complete_graph_configurations(self, n):
        calc = ThomCalculator(polarize(complete_graph(n)))
        configs = nearby_path_configurations(calc)
        assert configs
        for config in configs:
            assert nearby_path_identity(calc, config)

    def test_square_diagonal_fixture(self, data_dir):
        graph = load_graph(data_dir / "square_diagonal.graph")
        calc = ThomCalculator(polarize(graph))
        configs = nearby_path_configurations(calc)
        assert configs
        nondegenerate = 0
        for config in configs:
            assert nearby_path_identity(calc, config)
            total = calc.path_weight((config.diagonal,)) + calc.path_weight(
                (config.lower, config.upper)
            )
            if total.to_polynomial().total_degree() > 0:
                nondegenerate += 1
        assert nondegenerate >= 1

    def test_weight_sum_rule(self, data_dir):
        # the compatibility of the connection forces the diagonal weight to
        # be the sum of the side weights
        graph = load_graph(data_dir / "square_diagonal.graph")
        calc = ThomCalculator(polarize(graph))
        for config in nearby_path_configurations(calc):
            diff = (
                graph.weight(config.diagonal)
                - graph.weight(config.lower)
                - graph.weight(config.upper)
            )
            assert diff.is_zero


class TestEveryClassIsCocycle:
    @pytest.mark.parametrize(
        "build", [lambda: permutahedron(3), lambda: complete_graph(4)]
    )
    def test_produced_classes(self, build):
        graph = build()
        calc = ThomCalculator(polarize(graph))
        for base in graph.vertices:
            assert cocycle_witness(graph, calc.thom_class_paths(base).values) is None
            assert cocycle_witness(graph, calc.thom_class_inductive(base).values) is None
            assert cocycle_witness(graph, calc.thom_class_minus(base).values) is None


class TestLongestPathGlobality:
    def test_flag_variety(self, flag3_calc):
        graph = flag3_calc.graph
        pol = flag3_calc.pol
        bottom = pol.minimum_vertices()[0]
        top = max(graph.vertices, key=lambda v: pol.level(v))
        longest = max(flag3_calc.ascending_paths(bottom, top), key=len)
        assert len(longest) == pol.sigma[top]
        for eid in longest:
            assert flag3_calc.has_unique_path(eid)
            assert flag3_calc.iota(eid).to_polynomial().total_degree() <= 0

    def test_every_pair(self, flag3_calc, k5_calc):
        # every edge of a longest ascending path between any two vertices is
        # the unique path between its own endpoints, so its intersection
        # number is global; self-indexing makes it a constant
        for calc in (flag3_calc, k5_calc):
            for p in calc.graph.vertices:
                for q, paths in calc.paths_from(p).items():
                    nonempty = [path for path in paths if path]
                    if not nonempty:
                        continue
                    longest = max(nonempty, key=len)
                    for eid in longest:
                        iota = calc.iota(eid)
                        assert calc.has_unique_path(eid) and iota.is_polynomial
                        if calc.pol.self_indexing:
                            assert iota.to_polynomial().total_degree() <= 0
