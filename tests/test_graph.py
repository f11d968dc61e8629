import dataclasses
import itertools
from fractions import Fraction

import pytest

from gkmcalc import graph as graph_module
from gkmcalc.builders import build_graph, complete_graph, permutahedron
from gkmcalc.errors import GraphError, PolarizationError
from gkmcalc.graph import (
    GkmGraph,
    OrientedEdge,
    Polarization,
    betti,
    check_generic,
    longest_path_morse,
    polarize,
    search_polarization,
    validate,
)
from gkmcalc.symbolic import LinearForm, Polynomial
from oracles import totally_geodesic_subgraph


def inversions(perm):
    return sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])


class TestValidate:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete_graphs_valid(self, n):
        assert validate(complete_graph(n)).ok

    @pytest.mark.parametrize("n", range(2, 5))
    def test_permutahedra_valid(self, n):
        assert validate(permutahedron(n)).ok

    def test_negated_weight_reported(self):
        graph = complete_graph(3)
        edges = list(graph.edges)
        bad = edges[1]
        edges[1] = OrientedEdge(bad.eid, bad.source, bad.target, bad.weight.scale(-1))
        broken = GkmGraph(
            graph.dimension, graph.vertices, edges, graph.connection, default_xi=graph.default_xi
        )
        report = validate(broken)
        assert not report.ok
        assert any("reversed weight is not the negative" in line for line in report.violations)

    def test_parallel_weights_reported(self):
        graph = complete_graph(3)
        edges = list(graph.edges)
        # make the weight of p1>p3 parallel to that of p1>p2
        target = graph.edge_between("p1", "p3")
        reverse = graph.edges[target].reverse_id
        parallel = graph.weight(graph.edge_between("p1", "p2")).scale(2)
        edges[target] = OrientedEdge(target, "p1", "p3", parallel)
        edges[reverse] = OrientedEdge(reverse, "p3", "p1", parallel.scale(-1))
        report = validate(
            GkmGraph(graph.dimension, graph.vertices, edges, graph.connection)
        )
        assert any("GKM condition fails" in line for line in report.violations)

    def test_broken_connection_reported(self):
        graph = complete_graph(3)
        connection = dict(graph.connection)
        eid = graph.edge_between("p1", "p2")
        connection[(eid, eid)] = graph.edge_between("p2", "p3")  # should be the reversal
        report = validate(
            GkmGraph(graph.dimension, graph.vertices, graph.edges, connection)
        )
        assert any("reversal" in line for line in report.violations)

    def test_connection_rule_runs_on_first_read(self):
        calls = []

        def rule(graph):
            calls.append(graph)
            return {(0, 0): 1, (1, 1): 0}

        graph = GkmGraph.from_undirected(1, ["a", "b"], [("a", "b", LinearForm([1]))], rule)
        assert calls == []
        assert graph.connection == {(0, 0): 1, (1, 1): 0}
        assert validate(graph).ok
        assert calls == [graph]

    def test_connection_constants_recorded(self):
        report = validate(complete_graph(3))
        assert report.ok
        assert set(report.connection_constants.values()) == {Fraction(-1)}


class TestOrient:
    def test_complete_graph_indices(self):
        graph = complete_graph(4)
        pol = longest_path_morse(graph, graph.default_xi)
        assert [pol.sigma[v] for v in graph.vertices] == [0, 1, 2, 3]

    def test_permutahedron_indices_are_inversion_counts(self):
        graph = permutahedron(3)
        pol = longest_path_morse(graph, (1, 2, 3))
        for vertex in graph.vertices:
            perm = tuple(int(c) for c in vertex)
            assert pol.sigma[vertex] == inversions(perm)

    def test_reversal_swaps_edge_directions(self):
        graph = permutahedron(3)
        pol = longest_path_morse(graph, (1, 2, 3))
        rev = longest_path_morse(graph, (-1, -2, -3))
        for edge in graph.edges:
            assert pol.ascending(edge.eid) == (not rev.ascending(edge.eid))

    def test_zero_pairing_rejected(self):
        graph = complete_graph(3)
        with pytest.raises(PolarizationError):
            longest_path_morse(graph, (1, 1, 2))

    def test_sign_antisymmetry(self):
        graph = permutahedron(3)
        pol = longest_path_morse(graph, (1, 3, 9))
        for edge in graph.edges:
            assert pol.ascending(edge.eid) != pol.ascending(edge.reverse_id)

    def test_ascending_loop_rejected(self):
        # a triangle whose three weights all pair positively with xi has an
        # ascending cycle, so no Morse function exists
        graph = GkmGraph.from_undirected(
            2,
            ["u", "v", "w"],
            [
                ("u", "v", LinearForm([1, 0])),
                ("v", "w", LinearForm([0, 1])),
                ("w", "u", LinearForm([1, 1])),
            ],
        )
        with pytest.raises(PolarizationError) as excinfo:
            longest_path_morse(graph, (1, 1))
        assert "loop" in str(excinfo.value)


class TestMultipleMinima:
    def test_two_sources_in_one_component_rejected(self):
        # a path graph whose two endpoints both ascend into the middle has
        # two index-zero vertices; no consistent flow-up structure exists
        graph = GkmGraph.from_undirected(
            2,
            ["a", "b", "c"],
            [
                ("a", "b", LinearForm([1, 0])),
                ("c", "b", LinearForm([0, 1])),
            ],
        )
        with pytest.raises(PolarizationError) as excinfo:
            longest_path_morse(graph, (1, 1))
        assert "index zero" in str(excinfo.value)
        # betti polarizes, so it refuses the same graph
        with pytest.raises(PolarizationError) as excinfo:
            betti(graph, (1, 1))
        assert "index zero" in str(excinfo.value)


class TestDegenerateGraph:
    def test_single_vertex_accepted(self):
        from gkmcalc.builders import complete_graph
        from gkmcalc.cohomology import constant_class, integrate
        from gkmcalc.thom import ThomCalculator

        graph = complete_graph(1)
        assert validate(graph).ok
        pol = polarize(graph, (1,))
        assert pol.sigma == {"p1": 0}
        calc = ThomCalculator(pol)
        tau = calc.thom_class_paths("p1")
        assert tau.values["p1"] == Polynomial.one(1)
        # with no edges the localization integral is plain evaluation
        assert integrate(constant_class(graph)) == Polynomial.one(1)


class TestBetti:
    def test_complete_graph_all_ones(self):
        assert betti(complete_graph(5), (5, 4, 3, 2, 1)) == (1, 1, 1, 1, 1)

    def test_flag_variety(self):
        assert betti(permutahedron(3), (1, 2, 3)) == (1, 2, 2, 1)

    def test_s4_mahonian(self):
        # independent oracle: count permutations of S_4 by inversions
        counts = [0] * 7
        for perm in itertools.permutations(range(4)):
            counts[inversions(perm)] += 1
        assert betti(permutahedron(4), (1, 2, 3, 4)) == tuple(counts)

    def test_default_xi(self):
        # without xi, betti polarizes by the graph's default as polarize does
        graph = permutahedron(4)
        assert betti(graph) == betti(graph, (1, 2, 3, 4))

    @pytest.mark.parametrize("builder", [lambda: complete_graph(4), lambda: permutahedron(3)])
    def test_invariance_across_polarizations(self, builder):
        graph = builder()
        n = graph.dimension
        seen = []
        values = set()
        for candidate in itertools.product((-3, -2, -1, 1, 2, 3, 5), repeat=n):
            try:
                values.add(betti(graph, candidate))
                seen.append(candidate)
            except PolarizationError:
                continue
            if len(seen) >= 6:
                break
        assert len(seen) >= 5
        assert len(values) == 1


class TestMorse:
    def test_polarization_is_frozen(self):
        pol = polarize(permutahedron(3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            pol.phi = {}

    def test_polarization_mappings_are_read_only(self):
        pol = polarize(permutahedron(3))
        level = pol.level("123")
        for mapping, key in ((pol.phi, "123"), (pol.sigma, "123"), (pol.pairings, 0)):
            with pytest.raises(TypeError):
                mapping[key] = 99
        assert pol.level("123") == level

    @pytest.mark.parametrize("spec", ["permutahedron:4", "complete:5"])
    def test_vertices_by_level_sorts_by_phi(self, spec):
        pol = polarize(build_graph(spec))
        order = pol.vertices_by_level()
        assert isinstance(order, tuple)
        assert order is pol.vertices_by_level()
        assert list(order) == sorted(pol.graph.vertices, key=pol.phi.__getitem__)

    def test_flag_variety_self_indexing(self):
        graph = permutahedron(3)
        pol = longest_path_morse(graph, (1, 2, 3))
        assert pol.self_indexing
        for vertex in graph.vertices:
            perm = tuple(int(c) for c in vertex)
            assert int(pol.phi[vertex]) == inversions(perm)

    def test_complete_graph_self_indexing(self):
        graph = complete_graph(5)
        pol = longest_path_morse(graph, graph.default_xi)
        assert pol.self_indexing
        assert [int(pol.phi[v]) for v in graph.vertices] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("builder", [lambda: complete_graph(5), lambda: permutahedron(3)])
    def test_strictly_increasing_and_injective(self, builder):
        graph = builder()
        pol = polarize(graph)
        levels = [pol.phi[v] for v in graph.vertices]
        assert len(set(levels)) == len(levels)
        for edge in graph.edges:
            if pol.ascending(edge.eid):
                assert pol.phi[edge.source] < pol.phi[edge.target]

    def test_minimum_is_unique_phi_minimum(self):
        graph = permutahedron(4)
        pol = polarize(graph)
        bottom = pol.minimum_vertices()
        assert len(bottom) == 1
        assert min(graph.vertices, key=lambda v: pol.phi[v]) == bottom[0]

    def test_unique_path_index_jump(self):
        # an edge that is the only ascending path between its endpoints
        # raises the index by at most one
        from gkmcalc.thom import ThomCalculator

        for graph in (complete_graph(5), permutahedron(3)):
            pol = polarize(graph)
            calc = ThomCalculator(pol)
            for edge in graph.edges:
                if pol.ascending(edge.eid) and calc.has_unique_path(edge.eid):
                    assert pol.sigma[edge.target] <= pol.sigma[edge.source] + 1


class TestReversed:
    """The polarization by -xi comes from the negated pairings of the
    forward one; no pairing of a weight with xi is computed again."""

    @pytest.mark.parametrize("spec", ["permutahedron:3", "permutahedron:4", "complete:5", "hirzebruch:2"])
    def test_equals_the_polarization_by_minus_xi(self, spec, hirzebruch, monkeypatch):
        graph = hirzebruch(2) if spec == "hirzebruch:2" else build_graph(spec)
        pol = polarize(graph)
        expected = longest_path_morse(graph, tuple(-x for x in pol.xi))

        def refuse(*args):
            raise AssertionError("reversed() computed a pairing")

        # every pairing is taken in longest_path_morse, from _int_vector of xi
        monkeypatch.setattr(graph_module, "longest_path_morse", refuse)
        monkeypatch.setattr(graph_module, "_int_vector", refuse)
        monkeypatch.setattr(LinearForm, "pair", refuse)
        reverse = pol.reversed()
        for field in dataclasses.fields(Polarization):
            assert getattr(reverse, field.name) == getattr(expected, field.name), field.name
        assert reverse.reversed() == pol


class TestGenericity:
    def test_complete_three_fully_generic(self):
        graph = complete_graph(3)
        assert all(check_generic(graph, (3, 2, 1), v) for v in graph.vertices)

    def test_flag_variety_equal_steps_fail(self):
        # xi with equal pairings against both simple roots violates the
        # quadruple condition at every vertex
        graph = permutahedron(3)
        assert not any(check_generic(graph, (1, 2, 3), v) for v in graph.vertices)

    def test_flag_variety_unequal_steps_pass(self):
        graph = permutahedron(3)
        assert all(check_generic(graph, (1, 2, 4), v) for v in graph.vertices)

    def test_single_edge_vacuous(self):
        graph = complete_graph(2)
        assert check_generic(graph, graph.default_xi, "p1")

    def test_search_returns_generic_polarization(self):
        graph = permutahedron(3)
        xi = search_polarization(graph)
        assert all(graph.weight(e.eid).pair(xi) != 0 for e in graph.edges)
        assert all(check_generic(graph, xi, v) for v in graph.vertices)
        # deterministic
        assert xi == search_polarization(graph)


class TestTotallyGeodesic:
    def test_full_span_returns_everything(self):
        graph = complete_graph(4)
        sub = totally_geodesic_subgraph(graph, [e.weight for e in graph.edges])
        assert set(sub.vertices) == set(graph.vertices)
        assert len(sub.edges) == len(graph.edges)

    def test_flag_variety_single_root(self):
        graph = permutahedron(3)
        sub = totally_geodesic_subgraph(graph, [LinearForm([-1, 1, 0])])
        # three disjoint edges, all six vertices kept, valence one
        assert len(sub.vertices) == 6
        assert len(sub.edges) == 6
        assert all(len(sub.out_edges(v)) == 1 for v in sub.vertices)

    def test_complete_graph_coordinate_plane(self):
        graph = complete_graph(4)
        span = [
            LinearForm.basis(0, 4) - LinearForm.basis(1, 4),
            LinearForm.basis(1, 4) - LinearForm.basis(2, 4),
        ]
        sub = totally_geodesic_subgraph(graph, span)
        assert sorted(sub.vertices) == ["p1", "p2", "p3"]
        assert all(len(sub.out_edges(v)) == 2 for v in sub.vertices)
        assert validate(sub).ok

    def test_kept_edges_are_renumbered_in_order(self):
        graph = permutahedron(4)
        span = [LinearForm([-1, 1, 0, 0]), LinearForm([0, -1, 1, 0])]
        sub = totally_geodesic_subgraph(graph, span)
        roots = {span[0], span[1], span[0] + span[1]}
        kept = [edge for edge in graph.edges[::2] if edge.weight in roots or -edge.weight in roots]
        # four copies of the S_3 hexagon: 24 vertices, 12 undirected edges each
        assert len(sub.vertices) == 24 and len(kept) == 36
        for k, edge in enumerate(kept):
            assert sub.edges[2 * k] == dataclasses.replace(edge, eid=2 * k)
            reverse = graph.edges[edge.reverse_id]
            assert sub.edges[2 * k + 1] == dataclasses.replace(reverse, eid=2 * k + 1)
        new_id = {old.eid + side: 2 * k + side for k, old in enumerate(kept) for side in (0, 1)}
        expected = {
            (new_id[e], new_id[other]): new_id[image]
            for (e, other), image in graph.connection.items()
            if e in new_id and other in new_id and graph.edges[e].source == graph.edges[other].source
        }
        assert sub.connection == expected
        assert validate(sub).ok

    @pytest.mark.parametrize("side", [0, 1])
    def test_reversal_out_of_the_span_is_reported(self, side):
        graph = complete_graph(3)
        edges = list(graph.edges)
        # give one orientation of p1-p2 a weight outside the span of the other's
        bad = edges[side ^ 1]
        edges[side ^ 1] = OrientedEdge(bad.eid, bad.source, bad.target, LinearForm([1, 0, 0]))
        parent = GkmGraph(graph.dimension, graph.vertices, edges, graph.connection)
        with pytest.raises(GraphError, match="edge kept without its reversal"):
            totally_geodesic_subgraph(parent, [graph.edges[side].weight])

    def test_subgraph_closed_under_connection(self):
        graph = permutahedron(3)
        sub = totally_geodesic_subgraph(
            graph, [LinearForm([-1, 1, 0]), LinearForm([0, -1, 1])]
        )
        for (e, other), image in sub.connection.items():
            assert sub.edges[image].source == sub.edges[e].target
