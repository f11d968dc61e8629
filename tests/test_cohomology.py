from fractions import Fraction

import pytest

from gkmcalc.builders import complete_graph, permutahedron
from gkmcalc.cohomology import (
    CohomologyClass,
    CrossSectionClass,
    cocycle_witness,
    constant_class,
    cut_edge_ids,
    edge_class,
    integrate,
    integrate_cross_section,
    kirwan,
)
from gkmcalc.crosssection import chamber_levels
from gkmcalc.errors import CocycleError, ReductionError
from gkmcalc.graph import polarize
from gkmcalc.interpolation import elementary_symmetric
from gkmcalc.symbolic import LinearForm, Polynomial, RationalExpr, rho_poly
from gkmcalc.thom import ThomCalculator


def coordinate_class(graph):
    """tau(p_i) = x_i, the degree-one generator on the complete graph."""
    return CohomologyClass(
        graph,
        {f"p{i + 1}": Polynomial.variable(i, graph.dimension) for i in range(len(graph.vertices))},
        degree=1,
    )


class TestCocycle:
    def test_constant_map(self, flag3):
        assert cocycle_witness(flag3, {v: Polynomial.one(3) for v in flag3.vertices}) is None

    def test_coordinate_class(self):
        graph = complete_graph(3)
        assert cocycle_witness(graph, coordinate_class(graph).values) is None

    def test_witness_names_edge(self):
        graph = complete_graph(3)
        values = {v: Polynomial.zero(3) for v in graph.vertices}
        values["p1"] = Polynomial.variable(0, 3)
        witness = cocycle_witness(graph, values)
        assert witness is not None
        assert witness.edge_key == "p1>p2"

    def test_missing_vertex_rejected(self):
        graph = complete_graph(3)
        with pytest.raises(CocycleError):
            cocycle_witness(graph, {"p1": Polynomial.one(3)})

    def test_degree_zero_cocycles_are_constant(self, flag3):
        # dim H^0 = 1 on a connected graph: distinct constants fail the test
        values = {v: Polynomial.one(3) for v in flag3.vertices}
        values[flag3.vertex_by_label("(13)")] = Polynomial.constant(2, 3)
        assert cocycle_witness(flag3, values) is not None


class TestIntegrate:
    def test_unit_integrates_to_zero(self):
        for graph in (complete_graph(3), permutahedron(3)):
            assert integrate(constant_class(graph)).is_zero

    def test_low_degree_vanishes(self):
        # deg f < d forces a zero integral
        graph = complete_graph(4)
        tau = coordinate_class(graph)
        assert integrate(tau).is_zero
        assert integrate(tau * tau).is_zero

    @pytest.mark.parametrize("n", [3, 4])
    def test_dual_basis_pairing(self, n):
        # int nu_i tau^{j-1} = delta_i^j on the complete graph, where
        # nu_i = sum_r (-1)^{n-i-r} sigma_{n-i-r} tau^r
        graph = complete_graph(n)
        tau = coordinate_class(graph)
        powers = [constant_class(graph)]
        for _ in range(n - 1):
            powers.append(powers[-1] * tau)
        variables = [LinearForm.basis(i, n) for i in range(n)]
        for i in range(1, n + 1):
            nu = CohomologyClass(graph, {v: Polynomial.zero(n) for v in graph.vertices})
            for r in range(0, n - i + 1):
                sign = 1 if (n - i - r) % 2 == 0 else -1
                sigma = elementary_symmetric(variables, n - i - r)
                nu = nu + (powers[r] * (sigma * sign))
            for j in range(1, n + 1):
                value = integrate(nu * powers[j - 1])
                assert value == (Polynomial.one(n) if i == j else Polynomial.zero(n))

    def test_linearity_with_polynomial_scalars(self):
        graph = complete_graph(3)
        calc = ThomCalculator(polarize(graph))
        f = calc.thom_class_paths("p2")
        g = calc.thom_class_minus("p2")
        a = Polynomial.variable(0, 3)
        b = Polynomial.constant(Fraction(3, 7), 3)
        left = integrate(f * a + g * b)
        assert left == a * integrate(f) + b * integrate(g)

    def test_non_cocycle_fails_to_reduce(self):
        graph = complete_graph(3)
        values = {v: Polynomial.zero(3) for v in graph.vertices}
        values["p1"] = Polynomial.one(3)
        with pytest.raises(ReductionError, match="not a cocycle"):
            integrate(CohomologyClass(graph, values))


class TestProduct:
    def test_unit_is_neutral(self, flag3):
        from gkmcalc.graph import polarize
        from gkmcalc.thom import ThomCalculator

        calc = ThomCalculator(polarize(flag3))
        f = calc.thom_class_paths(flag3.vertex_by_label("(231)"))
        assert f * constant_class(flag3) == f

    def test_flag_variety_pointwise_value(self, flag3):
        from gkmcalc.graph import polarize
        from gkmcalc.thom import ThomCalculator

        calc = ThomCalculator(polarize(flag3))
        f = calc.thom_class_paths(flag3.vertex_by_label("(12)"))
        g = calc.thom_class_paths(flag3.vertex_by_label("(23)"))
        product = f * g
        a1 = LinearForm([-1, 1, 0]).as_polynomial()
        a2 = LinearForm([0, -1, 1]).as_polynomial()
        top = flag3.vertex_by_label("(13)")
        assert product.values[top] == (-a1 - a2) * (-a1 - a2)
        assert product.degree == f.degree + g.degree
        assert cocycle_witness(flag3, product.values) is None

    def test_scalar_multiples_keep_the_degree(self, flag3_calc):
        # so that __post_init__ checks their homogeneity too
        graph = flag3_calc.graph
        a = flag3_calc.thom_class_inductive(graph.vertex_by_label("(231)"))
        b = flag3_calc.thom_class_inductive(graph.vertex_by_label("(312)"))
        x1 = Polynomial.variable(0, 3)
        assert a.degree == b.degree == 2
        assert (a - b).degree == 2
        assert (a * 2).degree == (a * Fraction(1, 3)).degree == (2 * a).degree == 2
        assert (a * x1).degree == 3
        assert (a * (x1 * x1)).degree == 4
        assert (a * Polynomial.constant(5, 3)).degree == 2
        assert (a * (x1 + 1)).degree is None


class TestEdgeClass:
    def test_single_edge_graph(self):
        graph = complete_graph(2)
        tau = edge_class(graph, 0)
        assert tau.values["p1"] == Polynomial.one(2)
        assert tau.values["p2"] == Polynomial.one(2)
        assert tau.degree == 0

    def test_complete_three(self):
        graph = complete_graph(3)
        x = [LinearForm.basis(i, 3) for i in range(3)]
        tau = edge_class(graph, graph.edge_between("p1", "p2"))
        assert tau.values["p1"] == (x[0] - x[2]).as_polynomial()
        assert tau.values["p2"] == (x[1] - x[2]).as_polynomial()
        assert tau.values["p3"].is_zero
        assert cocycle_witness(graph, tau.values) is None

    def test_all_edges_cocycles(self, flag3):
        for edge in flag3.edges:
            tau = edge_class(flag3, edge.eid)
            assert cocycle_witness(flag3, tau.values) is None
            assert tau.degree == flag3.valence - 1


class TestKirwan:
    def test_unit_restricts_to_unit(self, flag3):
        pol = polarize(flag3)
        F = kirwan(constant_class(flag3), pol, Fraction(3, 2))
        assert all(value == Polynomial.one(3) for value in F.values.values())

    def test_values_killed_by_direction(self, flag3_calc):
        pol = flag3_calc.pol
        tau = flag3_calc.thom_class_paths(pol.graph.vertex_by_label("(12)"))
        F = kirwan(tau, pol, Fraction(2))
        for value in F.values.values():
            assert value.directional_derivative(pol.xi).is_zero

    def test_seed_formula_above_base(self, flag3_calc):
        # just above the base vertex the restriction of its Thom class is
        # rho_{e_a}(product of descending weights) on the edges leaving it,
        # zero elsewhere
        pol = flag3_calc.pol
        graph = pol.graph
        base = graph.vertex_by_label("(12)")
        level = pol.level(base) + Fraction(1, 100)
        assert pol.is_regular(level)
        F = kirwan(flag3_calc.thom_class_paths(base), pol, level)
        nu = flag3_calc.nu_plus(base)
        for eid in F.cut_edges():
            edge = graph.edges[eid]
            if edge.source == base:
                assert F.values[eid] == rho_poly(nu, edge.weight, pol.xi)
            else:
                assert F.values[eid].is_zero

    def test_ring_map(self, flag3_calc):
        pol = flag3_calc.pol
        graph = pol.graph
        f = flag3_calc.thom_class_paths(graph.vertex_by_label("(12)"))
        g = flag3_calc.thom_class_paths(graph.vertex_by_label("(23)"))
        c = Fraction(2)
        assert kirwan(f * g, pol, c) == kirwan(f, pol, c) * kirwan(g, pol, c)

    def test_critical_level_rejected(self, flag3):
        pol = polarize(flag3)
        with pytest.raises(Exception):
            kirwan(constant_class(flag3), pol, pol.level(flag3.vertex_by_label("(12)")))

    def test_cut_edges_definition(self, flag3):
        pol = polarize(flag3)
        c = Fraction(2)
        cut = cut_edge_ids(pol, c)
        for eid in cut:
            edge = flag3.edges[eid]
            assert pol.ascending(eid)
            assert pol.level(edge.source) < c < pol.level(edge.target)
        for edge in flag3.edges:
            if pol.ascending(edge.eid) and edge.eid not in cut:
                assert not (pol.level(edge.source) < c < pol.level(edge.target))


class TestIntegrateCrossSection:
    def test_edge_thom_class_integrates_to_multiplicity_inverse(self):
        # a single cut edge carrying the restriction of its own Thom class
        # integrates to 1/alpha_e(xi), the reduced point's multiplicity
        graph = complete_graph(2)
        pol = polarize(graph)
        eid = next(e.eid for e in graph.edges if pol.ascending(e.eid))
        c = (pol.level(graph.edges[eid].source) + pol.level(graph.edges[eid].target)) / 2
        F = kirwan(edge_class(graph, eid), pol, c)
        value = integrate_cross_section(F)
        assert value == Polynomial.constant(
            Fraction(1) / pol.pairings[eid], graph.dimension
        )

    def test_unique_path_pairing_is_local_intersection_number(self, flag3_calc):
        pol = flag3_calc.pol
        graph = pol.graph
        for edge in graph.edges:
            if not pol.ascending(edge.eid) or not flag3_calc.has_unique_path(edge.eid):
                continue
            c = (pol.level(edge.source) * 2 + pol.level(edge.target)) / 3
            assert pol.is_regular(c)
            Fp = kirwan(flag3_calc.thom_class_paths(edge.source), pol, c)
            Fq = kirwan(flag3_calc.thom_class_minus(edge.target), pol, c)
            value = integrate_cross_section(Fp * Fq)
            iota = flag3_calc.iota(edge.eid)
            assert iota.is_global
            assert iota.value == RationalExpr(value)

    def test_class_outside_the_image_fails_to_reduce(self, flag3_calc):
        # 1 on one cut edge of the first chamber and 0 on the others is not
        # the restriction of any class
        pol = flag3_calc.pol
        level = chamber_levels(pol)[1]
        first, *others = cut_edge_ids(pol, level)
        values = {first: Polynomial.one(3), **{e: Polynomial.zero(3) for e in others}}
        F = CrossSectionClass(pol, level, values)
        with pytest.raises(ReductionError, match="outside the admitted image"):
            integrate_cross_section(F)

    def test_self_indexing_gives_constants(self, flag3_calc):
        # with a self-indexing Morse function the unique-path pairing has
        # degree zero
        pol = flag3_calc.pol
        graph = pol.graph
        p = graph.vertex_by_label("(12)")
        q = graph.vertex_by_label("(231)")
        c = (pol.level(p) + pol.level(q)) / 2
        Fp = kirwan(flag3_calc.thom_class_paths(p), pol, c)
        Fq = kirwan(flag3_calc.thom_class_minus(q), pol, c)
        value = integrate_cross_section(Fp * Fq)
        assert value.total_degree() <= 0
