from fractions import Fraction

import pytest

from gkmcalc import thom
from gkmcalc.builders import build_graph, complete_graph, permutahedron
from gkmcalc.cohomology import CrossSectionClass, constant_class, kirwan
from gkmcalc.crosssection import (
    chamber_levels,
    compose_transfer,
    cross_section,
    crossed_vertices,
    single_step_transfer,
    transport_class,
    transport_with_interpolants,
)
from gkmcalc.errors import PathBudgetError, PolarizationError, ReductionError
from gkmcalc.graph import polarize
from gkmcalc.symbolic import LinearForm, Polynomial, RationalExpr
from gkmcalc.thom import ThomCalculator


@pytest.fixture(scope="module")
def flag3_pol(flag3):
    return polarize(flag3)


class TestCrossSection:
    def test_below_minimum_empty(self, flag3_pol):
        levels = chamber_levels(flag3_pol)
        assert cross_section(flag3_pol, levels[0]).cut == ()

    def test_first_chamber_cuts_minimum_star(self, flag3_pol):
        levels = chamber_levels(flag3_pol)
        section = cross_section(flag3_pol, levels[1])
        assert len(section.cut) == 3
        bottom = flag3_pol.minimum_vertices()[0]
        for eid in section.cut:
            assert flag3_pol.graph.edges[eid].source == bottom

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 2)])
    def test_complete_graph_counts(self, n, k):
        # between p_k and p_{k+1} exactly k(n-k) edges cross the level
        graph = complete_graph(n)
        pol = polarize(graph)
        c = (pol.level(f"p{k}") + pol.level(f"p{k + 1}")) / 2
        assert len(cross_section(pol, c).cut) == k * (n - k)

    def test_critical_level_rejected(self, flag3_pol):
        with pytest.raises(Exception):
            cross_section(flag3_pol, flag3_pol.critical_levels()[2])

    def test_vertex_count_change(self, flag3_pol):
        # |V_c| changes by (ascending - descending) degree across a vertex
        levels = chamber_levels(flag3_pol)
        for low, high in zip(levels, levels[1:]):
            crossed = crossed_vertices(flag3_pol, low, high)
            assert len(crossed) == 1
            vertex = crossed[0]
            ascending = len(flag3_pol.ascending_out(vertex))
            descending = len(flag3_pol.descending_out(vertex))
            change = len(cross_section(flag3_pol, high).cut) - len(
                cross_section(flag3_pol, low).cut
            )
            assert change == ascending - descending


class TestSingleStep:
    def test_index_zero_crossing_is_identity_on_persisting(self, flag3_pol):
        levels = chamber_levels(flag3_pol)
        step = single_step_transfer(flag3_pol, levels[0], levels[1])
        assert step.source.cut == ()
        assert step.entries == {}

    def test_index_one_crossing_forces_unit_entries(self, flag3_pol):
        # one descending edge: the Markov property forces every new entry
        # to be exactly one
        graph = flag3_pol.graph
        vertex = graph.vertex_by_label("(23)")
        assert flag3_pol.sigma[vertex] == 1
        level = flag3_pol.level(vertex)
        step = single_step_transfer(
            flag3_pol, level - Fraction(1, 50), level + Fraction(1, 50)
        )
        new_edges = set(step.target.cut) - set(step.source.cut)
        old_edges = set(step.source.cut) - set(step.target.cut)
        assert len(old_edges) == 1
        one = RationalExpr.one(graph.dimension)
        for w in new_edges:
            for v in old_edges:
                assert step.entry(v, w) == one

    def test_block_matches_beta_formula(self, flag3_pol):
        # crossing an index-two vertex: the 2 x 1 block must match the
        # node-difference quotient built from the betas in an explicit
        # splitting g* = <x> + ker(xi)
        graph = flag3_pol.graph
        xi = flag3_pol.xi
        vertex = graph.vertex_by_label("(231)")
        assert flag3_pol.sigma[vertex] == 2
        level = flag3_pol.level(vertex)
        step = single_step_transfer(
            flag3_pol, level - Fraction(1, 50), level + Fraction(1, 50)
        )
        x = LinearForm([0, 0, Fraction(1, 3)])  # pairs to 1 with (1,2,3)
        assert x.pair(xi) == 1

        def beta(eid):
            weight = graph.weight(eid)
            return x - weight.scale(1 / weight.pair(xi))

        descending = flag3_pol.descending_out(vertex)
        ascending = flag3_pol.ascending_out(vertex)
        betas = {eid: beta(eid) for eid in descending + ascending}
        for up in ascending:
            for j, down in enumerate(descending):
                numerator = Polynomial.one(graph.dimension)
                denominator = []
                for k, other in enumerate(descending):
                    if k == j:
                        continue
                    numerator = numerator * (betas[up] - betas[other])
                    denominator.append(betas[down] - betas[other])
                expected = RationalExpr.make(numerator, denominator)
                assert step.entry(graph.reverse(down), up) == expected

    def test_block_matches_beta_formula_complete5(self):
        # same oracle on bigger blocks: every interior vertex of the
        # complete graph on five vertices
        graph = complete_graph(5)
        pol = polarize(graph)
        xi = pol.xi  # (5, 4, 3, 2, 1)
        x = LinearForm([Fraction(1, 5), 0, 0, 0, 0])
        assert x.pair(xi) == 1

        def beta(eid):
            weight = graph.weight(eid)
            return x - weight.scale(1 / weight.pair(xi))

        for vertex in graph.vertices:
            descending = pol.descending_out(vertex)
            ascending = pol.ascending_out(vertex)
            if not descending or not ascending:
                continue
            level = pol.level(vertex)
            step = single_step_transfer(
                pol, level - Fraction(1, 100), level + Fraction(1, 100)
            )
            betas = {eid: beta(eid) for eid in descending + ascending}
            for up in ascending:
                for j, down in enumerate(descending):
                    numerator = Polynomial.one(graph.dimension)
                    denominator = []
                    for k, other in enumerate(descending):
                        if k == j:
                            continue
                        numerator = numerator * (betas[up] - betas[other])
                        denominator.append(betas[down] - betas[other])
                    expected = RationalExpr.make(numerator, denominator)
                    assert step.entry(graph.reverse(down), up) == expected

    def test_markov_on_every_step(self, flag3_pol):
        levels = chamber_levels(flag3_pol)
        for low, high in zip(levels[1:], levels[2:]):
            assert single_step_transfer(flag3_pol, low, high).is_markov()

    def test_requires_exactly_one_vertex(self, flag3_pol):
        levels = chamber_levels(flag3_pol)
        with pytest.raises(PolarizationError):
            single_step_transfer(flag3_pol, levels[1], levels[3])


class TestComposeTransfer:
    def test_same_chamber_is_identity(self, flag3_pol):
        c = chamber_levels(flag3_pol)[2]
        matrix = compose_transfer(flag3_pol, c, c + Fraction(1, 1000))
        one = RationalExpr.one(3)
        for v in matrix.source.cut:
            for w in matrix.target.cut:
                expected = one if v == w else RationalExpr.zero(3)
                assert matrix.entry(v, w) == expected

    def test_full_sweep_matches_path_sum_complete3(self):
        # compose_transfer verifies the product form against the
        # ascending-path weighted sum internally; this drives it end to end
        graph = complete_graph(3)
        pol = polarize(graph)
        levels = chamber_levels(pol)
        matrix = compose_transfer(pol, levels[1], levels[-2])
        assert matrix.is_markov()

    @pytest.mark.parametrize(
        "build", [lambda: permutahedron(3), lambda: complete_graph(4)]
    )
    def test_markov_for_composites(self, build):
        graph = build()
        pol = polarize(graph)
        levels = chamber_levels(pol)
        for start in range(1, len(levels) - 1):
            for stop in range(start + 1, len(levels)):
                matrix = compose_transfer(pol, levels[start], levels[stop])
                assert matrix.is_markov()

    def test_keeps_only_nonzero_entries(self):
        # on permutahedron:4 some entries cancel to zero; the sweep drops
        # them, so the stored keys are exactly the nonzero path sums
        from gkmcalc.crosssection import _transfer_by_paths

        pol = polarize(permutahedron(4))
        levels = chamber_levels(pol)
        matrix = compose_transfer(pol, levels[1], levels[-2])
        assert all(not value.is_zero for value in matrix.entries.values())
        expected = _transfer_by_paths(ThomCalculator(pol), matrix.source, matrix.target)
        assert set(matrix.entries) == {key for key, value in expected.items() if not value.is_zero}

    def test_path_check_stays_inside_its_window(self, monkeypatch):
        # on S_5 the paths from levels[1] up to the top vertex number 91,054;
        # the check reads only those below the upper level
        pol = polarize(permutahedron(5))
        levels = chamber_levels(pol)
        found = []
        paths_from = ThomCalculator.paths_from

        def recording(calc, *args):
            found.append(paths_from(calc, *args))
            return found[-1]

        monkeypatch.setattr(ThomCalculator, "paths_from", recording)
        assert compose_transfer(pol, levels[1], levels[2]).is_markov()
        assert found
        assert all(pol.level(end) < levels[2] for paths in found for end in paths)

    @pytest.mark.parametrize("spec", ["permutahedron:4", "complete:5"])
    def test_path_budget_counts_the_enumerated_paths(self, monkeypatch, spec):
        # the full sweep's check enumerates exactly the counted paths: a
        # budget of that many passes, one fewer refuses before any is listed
        pol = polarize(build_graph(spec))
        levels = chamber_levels(pol)
        listed = {}
        paths_from = ThomCalculator.paths_from

        def recording(calc, *args):
            found = paths_from(calc, *args)
            listed[args] = sum(map(len, found.values()))
            return found

        monkeypatch.setattr(ThomCalculator, "paths_from", recording)
        assert compose_transfer(pol, levels[1], levels[-1]).is_markov()
        total = sum(listed.values())
        assert total == {"permutahedron:4": 548, "complete:5": 15}[spec]
        monkeypatch.setattr(thom, "PATH_BUDGET", total)
        assert compose_transfer(pol, levels[1], levels[-1]).is_markov()
        monkeypatch.setattr(thom, "PATH_BUDGET", total - 1)
        listed.clear()
        message = f"needs {total} ascending paths, over the budget of {total - 1}"
        with pytest.raises(PathBudgetError, match=message):
            compose_transfer(pol, levels[1], levels[-1])
        assert listed == {}

    def test_rejects_sweep_through_minimum(self, flag3_pol):
        levels = chamber_levels(flag3_pol)
        with pytest.raises(PolarizationError):
            compose_transfer(flag3_pol, levels[0], levels[2])

    def test_path_sum_check_trap_fires(self, flag3_pol):
        # corrupt a composed matrix entry and feed it to the checker: the
        # comparison with the ascending-path sum must catch it
        from gkmcalc.crosssection import _check_against_paths
        from gkmcalc.errors import InternalConsistencyError

        levels = chamber_levels(flag3_pol)
        matrix = compose_transfer(flag3_pol, levels[1], levels[-2])
        key = next(iter(matrix.entries))
        matrix.entries[key] = matrix.entries[key] + 1
        with pytest.raises(InternalConsistencyError):
            _check_against_paths(ThomCalculator(flag3_pol), matrix)


class TestTransport:
    def test_unit_class_stays_unit(self, flag3_pol):
        graph = flag3_pol.graph
        levels = chamber_levels(flag3_pol)
        seed = kirwan(constant_class(graph), flag3_pol, levels[1])
        moved = transport_class(seed, levels[-1])
        assert moved == kirwan(constant_class(graph), flag3_pol, levels[-1])

    def test_thom_basis_transport_matches_kirwan(self, flag3_calc):
        self._check_transport_matches_kirwan(flag3_calc)

    def test_thom_basis_transport_matches_kirwan_complete4(self):
        self._check_transport_matches_kirwan(ThomCalculator(polarize(complete_graph(4))))

    @staticmethod
    def _check_transport_matches_kirwan(calc):
        pol = calc.pol
        levels = chamber_levels(pol)
        for base in pol.vertices_by_level():
            starts = [c for c in levels if c > pol.level(base)]
            if len(starts) < 2:
                continue
            tau = calc.thom_class_paths(base)
            seed = kirwan(tau, pol, starts[0])
            for target in starts[1:]:
                assert transport_class(seed, target) == kirwan(tau, pol, target)

    def test_transport_matches_kirwan_s4(self, s4_calc):
        pol = s4_calc.pol
        levels = chamber_levels(pol)
        for base in pol.vertices_by_level():
            starts = [c for c in levels if c > pol.level(base)]
            tau = s4_calc.thom_class_inductive(base)
            moved = kirwan(tau, pol, starts[0])
            for target in starts[1:]:
                # each step transports the previous step's output
                moved = transport_class(moved, target)
                assert moved == kirwan(tau, pol, target)

    def test_inexact_flip_flop_names_vertex_and_edges(self, flag3_calc):
        pol = flag3_calc.pol
        graph = pol.graph
        vertex = graph.vertex_by_label("(231)")
        descending = pol.descending_out(vertex)
        assert len(descending) == 2
        level = pol.level(vertex)
        seed = kirwan(flag3_calc.thom_class_inductive(vertex), pol, level - Fraction(1, 50))
        values = dict(seed.values)
        values[graph.reverse(descending[0])] += 1
        broken = type(seed)(pol, seed.level, values)
        with pytest.raises(ReductionError) as caught:
            transport_class(broken, level + Fraction(1, 50))
        message = str(caught.value)
        assert "(231)" in message
        for down in descending:
            assert graph.edges[down].key() in message

    def test_critical_target_rejected(self, flag3_pol):
        levels = chamber_levels(flag3_pol)
        seed = kirwan(constant_class(flag3_pol.graph), flag3_pol, levels[1])
        with pytest.raises(PolarizationError):
            transport_class(seed, flag3_pol.critical_levels()[2])
        # a class recorded at a critical level cannot be moved either
        at_vertex = CrossSectionClass(flag3_pol, flag3_pol.critical_levels()[1], seed.values)
        with pytest.raises(PolarizationError):
            transport_class(at_vertex, levels[-1])

    def test_interpolants_are_class_values(self, flag3_calc):
        # the flip-flop polynomial at each crossed vertex is exactly the
        # Thom class value there
        pol = flag3_calc.pol
        graph = pol.graph
        levels = chamber_levels(pol)
        base = graph.vertex_by_label("(12)")
        tau = flag3_calc.thom_class_paths(base)
        seed = kirwan(tau, pol, pol.level(base) + Fraction(1, 50))
        moved, interpolants = transport_with_interpolants(seed, levels[-1])
        assert interpolants
        for vertex, psi in interpolants.items():
            assert psi == tau.values[vertex]
        assert moved == kirwan(tau, pol, levels[-1])

    def test_descending_weight_partition_of_unity(self, k5_calc):
        # the single-edge transfer weights into any non-minimal vertex sum
        # to one; this is the mechanism behind the unit minimum class
        pol = k5_calc.pol
        graph = k5_calc.graph
        one = RationalExpr.one(graph.dimension)
        for vertex in graph.vertices:
            if pol.sigma[vertex] == 0:
                continue
            total = RationalExpr.zero(graph.dimension)
            for down in pol.descending_out(vertex):
                total = total + k5_calc.q_edge(graph.reverse(down))
            assert total == one
