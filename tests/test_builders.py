import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc import graph as graph_module
from gkmcalc.builders import (
    _count_perfect_matchings,
    build_graph,
    complete_graph,
    complete_graph_on_points,
    graph_from_document,
    load_graph,
    permutahedron,
)
from gkmcalc.cohomology import cocycle_witness
from gkmcalc.errors import FormatError, GraphError
from gkmcalc.graph import polarize, validate
from gkmcalc.symbolic import LinearForm, Polynomial, format_rational
from oracles import dumps_graph


class TestCompleteGraph:
    def test_two_vertices_single_edge(self):
        graph = complete_graph(2)
        assert len(graph.vertices) == 2
        assert len(graph.edges) == 2
        weight = graph.weight(graph.edge_between("p1", "p2"))
        assert weight == LinearForm([1, -1])
        assert graph.weight(graph.edge_between("p2", "p1")) == LinearForm([-1, 1])

    def test_coordinate_class_is_cocycle(self):
        graph = complete_graph(3)
        values = {
            f"p{i + 1}": LinearForm.basis(i, 3).as_polynomial() for i in range(3)
        }
        assert cocycle_witness(graph, values) is None

    def test_weights_span_hyperplane(self):
        # all weights are sum-zero: the expected degeneracy of these builders
        for graph in (complete_graph(4), permutahedron(3)):
            for edge in graph.edges:
                assert sum(edge.weight.coeffs, start=Fraction(0)) == 0

    def test_repeated_point_violations(self):
        # the vertex rule names no weight, so the zero weight of p1 -- p2
        # leaves the connection itself valid
        x1, x2 = LinearForm.basis(0, 2), LinearForm.basis(1, 2)
        assert validate(complete_graph_on_points([x1, x1, x2])).violations == [
            "edge p1>p2: zero weight",
            "edge p2>p1: zero weight",
            "vertex p3: weights of p3>p1 and p3>p2 are parallel (GKM condition fails)",
        ]


class TestPermutahedron:
    def test_counts(self):
        graph = permutahedron(3)
        assert len(graph.vertices) == 6
        assert graph.valence == 3
        assert graph.dimension == 3

    @pytest.mark.parametrize("n", [3, 5])
    def test_reversals_negate_each_distinct_weight_once(self, monkeypatch, n):
        # rebuilt from its forward edges, the graph is the same edge for
        # edge, and the n(n-1)/2 distinct weights are negated once each
        graph = permutahedron(n)
        records = [(e.source, e.target, e.weight) for e in graph.edges[::2]]
        negations = []
        negate = LinearForm.__neg__

        def counting(form):
            negations.append(form)
            return negate(form)

        monkeypatch.setattr(LinearForm, "__neg__", counting)
        rebuilt = graph_module.GkmGraph.from_undirected(n, graph.vertices, records)
        assert rebuilt.edges == graph.edges
        assert set(negations) == {w for _, _, w in records}
        assert len(negations) == n * (n - 1) // 2

    def test_identity_to_top_weight(self):
        graph = permutahedron(3)
        one = graph.vertex_by_label("1")
        top = graph.vertex_by_label("(13)")
        weight = graph.weight(graph.edge_between(one, top))
        assert weight == LinearForm([-1, 0, 1])  # e3 - e1 = a1 + a2

    def test_complete_bipartite(self):
        graph = permutahedron(3)
        def parity(name):
            perm = tuple(int(c) for c in name)
            swaps = sum(
                1
                for i in range(3)
                for j in range(i + 1, 3)
                if perm[i] > perm[j]
            )
            return swaps % 2
        for a in graph.vertices:
            for b in graph.vertices:
                if a == b:
                    continue
                adjacent = graph.edge_between(a, b) is not None
                assert adjacent == (parity(a) != parity(b))

    def test_two_vertices(self):
        graph = permutahedron(2)
        assert len(graph.vertices) == 2
        assert graph.valence == 1

    def test_length_is_morse_function(self):
        graph = permutahedron(4)
        pol = polarize(graph)
        assert pol.self_indexing

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_connection_composes_transpositions(self, n):
        # one-line permutations composed as functions: (p*q)(k) = p(q(k));
        # the edge pi -> pi*t_ij carries e_j - e_i when pi(j) > pi(i), and
        # the connection along pi -> pi*t maps pi -> pi*t' to
        # pi*t -> pi*t'*t
        def perm(name):
            return tuple(int(c) for c in name)

        def compose(p, q):
            return tuple(p[k - 1] for k in q)

        def inverse(p):
            return tuple(sorted(range(1, len(p) + 1), key=lambda k: p[k - 1]))

        graph = permutahedron(n)
        assert len(graph.connection) == len(graph.edges) * (n * (n - 1) // 2)
        for edge in graph.edges:
            pi = perm(edge.source)
            t = compose(inverse(pi), perm(edge.target))
            i, j = (k for k in range(n) if t[k] != k + 1)
            coeffs = [0] * n
            coeffs[j], coeffs[i] = (1, -1) if pi[j] > pi[i] else (-1, 1)
            assert edge.weight == LinearForm(coeffs)
            for other in graph.out_edges(edge.source):
                t_prime = compose(inverse(pi), perm(graph.edges[other].target))
                image = graph.edges[graph.theta(edge.eid, other)]
                assert perm(image.source) == compose(pi, t)
                assert perm(image.target) == compose(compose(pi, t_prime), t)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        graph = complete_graph(4)
        path = tmp_path / "k4.graph"
        path.write_text(dumps_graph(graph))
        loaded = load_graph(path)
        assert dumps_graph(loaded) == dumps_graph(graph)
        assert loaded.connection == graph.connection
        assert loaded.default_xi == graph.default_xi

    def test_negated_weight_fault(self, data_dir):
        with pytest.raises(FormatError) as excinfo:
            load_graph(data_dir / "broken.graph")
        assert str(excinfo.value) == "edges[1]: reversed weight is not the negative (x1 vs x1)"

    def test_listed_reversals_load_as_implicit_ones(self):
        graph = permutahedron(3)
        document = json.loads(dumps_graph(graph))
        both = json.loads(dumps_graph(graph))
        for record in document["edges"]:
            weight = [format_rational(-Fraction(c)) for c in record["weight"]]
            both["edges"].append({"from": record["to"], "to": record["from"], "weight": weight})
        one, two = graph_from_document(document), graph_from_document(both)
        assert two.edges == one.edges == graph.edges
        assert two.connection == one.connection == graph.connection
        assert dumps_graph(two) == dumps_graph(one) == dumps_graph(graph)

    def test_listed_reversal_with_a_wrong_weight_names_its_record(self):
        document = json.loads(dumps_graph(complete_graph(3)))
        document["edges"].insert(1, {"from": "p2", "to": "p1", "weight": ["1", "-1", "0"]})
        with pytest.raises(FormatError, match=r"^edges\[1\]: reversed weight is not the negative "):
            graph_from_document(document)

    def test_listed_connection_gets_the_inverses_it_leaves_out(self):
        graph = complete_graph(4)
        document = json.loads(dumps_graph(graph))
        # keep theta_e for the edges e of even id, whose inverses give the rest
        even = {f"{edge.key()}|" for edge in graph.edges[::2]}
        document["connection"] = {
            key: image for key, image in document["connection"].items() if key[: key.index("|") + 1] in even
        }
        assert len(document["connection"]) == len(graph.connection) // 2
        assert graph_from_document(document).connection == graph.connection

    def test_connection_derivation_matches_builder(self):
        # unambiguous for the complete graph: the cross-pair differences are
        # never parallel to an edge weight in the standard basis
        graph = complete_graph(4)
        document = json.loads(dumps_graph(graph))
        del document["connection"]
        loaded = graph_from_document(document)
        assert loaded.connection == graph.connection

    def test_flag_variety_derivation_is_ambiguous(self):
        # the two simple-root directions collide modulo the third weight, so
        # two compatible bijections exist and loading must fail loudly rather
        # than silently picking the wrong (weight-preserving) connection
        graph = permutahedron(3)
        document = json.loads(dumps_graph(graph))
        del document["connection"]
        with pytest.raises(GraphError) as excinfo:
            graph_from_document(document)
        assert "ambiguous" in str(excinfo.value)

    def test_ambiguous_connection_lists_choices(self):
        # four coplanar points with a parallel cross-pair make the
        # compatible bijection non-unique
        points = [LinearForm(c) for c in [(0, 0), (1, 0), (0, 1), (1, 2)]]
        graph = complete_graph_on_points(points)
        document = json.loads(dumps_graph(graph))
        del document["connection"]
        with pytest.raises(GraphError) as excinfo:
            graph_from_document(document)
        assert "ambiguous" in str(excinfo.value)

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text('{"dimension": 2,\n  "vertices": [,]\n}')
        with pytest.raises(FormatError) as excinfo:
            load_graph(path)
        assert "line 2" in str(excinfo.value)

    def test_square_diagonal_fixture(self, data_dir):
        graph = load_graph(data_dir / "square_diagonal.graph")
        assert validate(graph).ok
        assert graph.valence == 3
        assert graph.dimension == 2
        pol = polarize(graph)
        assert pol.self_indexing

    def test_axial_axioms_checked_once_per_load(self, data_dir, monkeypatch):
        calls = []
        validate_axial = graph_module.validate_axial

        def counted(graph):
            calls.append(graph)
            return validate_axial(graph)

        monkeypatch.setattr(graph_module, "validate_axial", counted)
        load_graph(data_dir / "square_diagonal.graph")
        assert len(calls) == 1


@functools.lru_cache(maxsize=1)
def _square_text() -> str:
    return dumps_graph(load_graph(Path(__file__).parent / "data" / "square_diagonal.graph"))


def square_document() -> dict:
    """A fresh copy of square_diagonal.graph with its derived connection
    written out: one mutation then never reaches derive_connection, whose
    failures are GraphError by contract (see the ambiguity tests above)."""
    return json.loads(_square_text())


def _parent(document, path):
    """(container, key) of the value at a path of keys and indices."""
    *parents, key = path
    for step in parents:
        document = document[step]
    return document, key


MALFORMED = {
    "labels": (("labels",), ["a"]),
    "connection": (("connection",), ["a"]),
    "connection value": (("connection", "p1>p2|p1>p2"), 5),
    "xi": (("xi",), 5),
    "edges": (("edges",), 5),
    "no edges for the connection": (("edges",), []),
    "weight entry": (("edges", 0, "weight", 0), None),
    "xi exponent": (("xi",), ["1e20000", "1"]),
    "xi decimal": (("xi",), ["0.5", "1"]),
    "xi spaces": (("xi",), [" 1", "1"]),
    "xi underscore": (("xi",), ["1_000", "1"]),
    "xi length": (("xi",), [1]),
    "dimension": (("dimension",), float("inf")),
    "duplicate vertices": (("vertices",), ["p1", "p1", "p2", "p3"]),
}


def _document_nodes(node, path=()):
    """The path of every value below the root, containers included."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _document_nodes(child, path + (key,))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats()
    | st.sampled_from(["0", "1", "-1", "1/2", "2/0", "x", "", "p1", "p1>p2"])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


class TestPerfectMatchings:
    def test_high_valence_does_not_recurse(self):
        # one candidate per edge, far past the recursion limit
        left = list(range(5000))
        matchings = _count_perfect_matchings(left, {o: [o] for o in left})
        assert matchings == [{o: o for o in left}]

    def test_stops_at_the_second_in_search_order(self):
        assert _count_perfect_matchings([0, 1], {0: [10, 11], 1: [10, 11]}) == [
            {0: 10, 1: 11},
            {0: 11, 1: 10},
        ]
        # six matchings exist; the first two found are returned
        full = {o: [5, 6, 7] for o in (0, 1, 2)}
        assert _count_perfect_matchings([0, 1, 2], full) == [
            {0: 5, 1: 6, 2: 7},
            {0: 5, 1: 7, 2: 6},
        ]

    def test_no_matching(self):
        assert _count_perfect_matchings([0, 1], {0: [5], 1: [5]}) == []


class TestMalformedDocument:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_format_error(self, case):
        path, value = MALFORMED[case]
        document = square_document()
        target, key = _parent(document, path)
        target[key] = value
        with pytest.raises(FormatError):
            graph_from_document(document)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutation_raises_format_error_or_loads(self, data):
        document = square_document()
        target, key = _parent(document, data.draw(st.sampled_from(list(_document_nodes(document)))))
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(json_values)
        try:
            graph_from_document(document)
        except FormatError:
            pass


class TestBuildGraph:
    def test_specs(self):
        assert len(build_graph("complete:3").vertices) == 3
        assert len(build_graph("permutahedron:3").vertices) == 6

    def test_file_spec(self, data_dir):
        graph = build_graph(f"file:{data_dir / 'square_diagonal.graph'}")
        assert len(graph.vertices) == 4

    def test_bare_path(self, data_dir):
        graph = build_graph(str(data_dir / "square_diagonal.graph"))
        assert len(graph.vertices) == 4

    def test_unknown_spec(self):
        with pytest.raises(FormatError):
            build_graph("dodecahedron:12")
