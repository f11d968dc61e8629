"""Constructors for the built-in example graphs and the graph file loader.

Two families cover the worked examples: the complete graph on n vertices
(projective (n-1)-space, weight x_i - x_j on the edge p_i -> p_j) and the
permutahedron (Cayley graph of S_n with all transpositions, the flag
variety).  Each states its connection as a rule, run on the first read of
graph.connection: by vertices on the complete graph (_vertex_rule), by
reflecting weights on the permutahedron (_reflection_rule).  Custom graphs
load from a JSON document, built by GkmGraph.from_undirected as the families
are; when the connection is omitted the loader's rule derives the unique
compatible one or fails listing the ambiguities.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import FormatError, GraphError
from .graph import GkmGraph, _connection_constant, _validate_connection, validate_axial
from .symbolic import LinearForm, RationalLike, format_rational, rat_vector


def complete_graph_on_points(
    points: Sequence[LinearForm], default_xi: Optional[Sequence[RationalLike]] = None
) -> GkmGraph:
    """Complete graph on vertices p1, ..., pn with weight points[i] - points[j]
    on the edge pi -> pj.

    The connection along p_i -> p_j sends p_i -> p_k to p_j -> p_k and the
    edge itself to its reversal; compatibility holds with constant -1.
    """
    n = len(points)
    if n < 1:
        raise GraphError("need at least one point")
    dim = points[0].dim
    names = [f"p{i + 1}" for i in range(n)]
    pairs = itertools.combinations(range(n), 2)
    undirected = [(names[i], names[j], points[i] - points[j]) for i, j in pairs]
    xi = rat_vector(default_xi) if default_xi is not None else None
    return GkmGraph.from_undirected(dim, names, undirected, _vertex_rule, default_xi=xi)


def _vertex_rule(graph: GkmGraph) -> dict[tuple[int, int], int]:
    """The complete graph's connection, named by vertices (see above)."""
    return {
        (e.eid, o): e.reverse_id if o == e.eid else graph.edge_between(e.target, graph.edges[o].target)
        for e in graph.edges
        for o in graph.out_edges(e.source)
    }


def complete_graph(n: int) -> GkmGraph:
    """Complete graph on n vertices with weights x_i - x_j; xi = (n, ..., 1)."""
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    points = [LinearForm.basis(i, n) for i in range(n)]
    return complete_graph_on_points(points, default_xi=list(range(n, 0, -1)))


def _swap(perm: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """Right multiplication by the transposition of positions i < j (0-based)."""
    out = list(perm)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


FLAG3_LABELS = {
    "123": "1",
    "213": "(12)",
    "132": "(23)",
    "231": "(231)",
    "312": "(312)",
    "321": "(13)",
}


def permutahedron(n: int) -> GkmGraph:
    """Cayley graph of S_n with all transpositions; the flag variety graph.

    Vertices are permutations in one-line notation; pi and pi*t_ij are
    adjacent, and the oriented edge pi -> pi*t_ij carries weight e_j - e_i
    when pi(j) > pi(i).  The connection maps (pi, pi*t') to
    (pi*t, pi*t'*t) = (pi*t, (pi*t)*(t*t'*t)); conjugating t' by t swaps the
    coordinates i, j of its weight, the reflection in e_j - e_i, so the
    connection is _reflection_rule, built on first read.  With
    xi = (1, ..., n), word length is a self-indexing Morse function.
    """
    if n < 2:
        raise GraphError("permutahedron needs n >= 2")
    if n > 9:
        raise GraphError("one-line vertex names support n <= 9")
    perms = list(itertools.permutations(range(1, n + 1)))
    names = ["".join(map(str, p)) for p in perms]  # one-line notation
    transpositions = list(itertools.combinations(range(n), 2))
    # e_j - e_i, the weight of pi -> pi*t_ij when pi(i) < pi(j)
    weights = {
        (i, j): LinearForm._canonical(tuple((k == j) - (k == i) for k in range(n)), 1)
        for i, j in transpositions
    }
    name_of = dict(zip(perms, names))
    undirected = [
        (name_of[perm], name_of[_swap(perm, i, j)], weights[i, j])
        for perm in perms
        for i, j in transpositions
        if perm[i] < perm[j]  # perm < perm*t_ij
    ]
    labels = dict(FLAG3_LABELS) if n == 3 else None
    return GkmGraph.from_undirected(
        n, names, undirected, _reflection_rule, labels, rat_vector(range(1, n + 1))
    )


def _reflection_rule(graph: GkmGraph) -> dict[tuple[int, int], int]:
    """G/B's connection: along an edge of weight a, the edge of weight b goes to
    the edge at the head of weight b - 2 (b.a)/(a.a) a; a itself goes to -a."""
    # distinct weights numbered once, so that the lookups below hash ints
    forms = list(dict.fromkeys(edge.weight for edge in graph.edges))
    number = {form: k for k, form in enumerate(forms)}
    wid = [number[edge.weight] for edge in graph.edges]
    at = {(edge.source, wid[edge.eid]): edge.eid for edge in graph.edges}

    @functools.cache
    def reflect(a: int, b: int) -> int:
        fa, fb = forms[a], forms[b]
        return number[fb - fa.scale(2 * fb.pair(fa.coeffs) / fa.pair(fa.coeffs))]

    return {
        (edge.eid, other): at[edge.target, reflect(wid[edge.eid], wid[other])]
        for edge in graph.edges
        for other in graph.out_edges(edge.source)
    }


# ---------------------------------------------------------------------------
# the on-disk format


def graph_to_document(graph: GkmGraph) -> dict:
    """Canonical JSON-ready document; one record per undirected edge."""
    edges = []
    for edge in graph.edges:
        if edge.eid % 2 == 0:
            edges.append(
                {
                    "from": edge.source,
                    "to": edge.target,
                    "weight": [format_rational(c) for c in edge.weight.coeffs],
                }
            )
    connection = {
        f"{graph.edges[e].key()}|{graph.edges[other].key()}": graph.edges[image].key()
        for (e, other), image in sorted(graph.connection.items())
    }
    document = {
        "dimension": graph.dimension,
        "valence": graph.valence,
        "vertices": list(graph.vertices),
        "edges": edges,
        "connection": connection,
    }
    if graph.labels:
        document["labels"] = dict(graph.labels)
    if graph.default_xi is not None:
        document["xi"] = [format_rational(c) for c in graph.default_xi]
    return document


def dumps_graph(graph: GkmGraph) -> str:
    return json.dumps(graph_to_document(graph), indent=2, sort_keys=True) + "\n"


def save_graph(graph: GkmGraph, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_graph(graph))


def _parse_vector(raw, dim: int, where: str) -> tuple[Fraction, ...]:
    if not isinstance(raw, list) or len(raw) != dim:
        raise FormatError(f"{where} must be a list of {dim} rationals")
    try:
        return rat_vector(raw)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise FormatError(f"{where}: bad rational ({exc})") from exc


def graph_from_document(document: dict) -> GkmGraph:
    """Build and validate a graph from its JSON document; FormatError on a
    malformed or invalid one.

    The connection is a rule, run on its first read in validation: the
    listed entries (_listed_connection) or, when the file lists none,
    derive_connection, which raises GraphError when it is not unique."""
    missing = [key for key in ("dimension", "vertices", "edges") if key not in document]
    if missing:
        raise FormatError(f"missing field(s) {', '.join(map(repr, missing))}")
    try:
        dimension = int(document["dimension"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed field 'dimension': {exc}") from exc
    if dimension < 0:
        raise FormatError(f"negative dimension {dimension}")
    raw_vertices, edge_records = document["vertices"], document["edges"]
    if not isinstance(raw_vertices, list) or not isinstance(edge_records, list):
        raise FormatError("fields 'vertices' and 'edges' must be JSON arrays")
    vertices = [str(v) for v in raw_vertices]
    labels, raw_connection = document.get("labels", {}), document.get("connection")
    if not isinstance(labels, dict) or not isinstance(raw_connection, (dict, type(None))):
        raise FormatError("fields 'labels' and 'connection' must be JSON objects")

    # one record per undirected edge; a listed reversal must carry its negated weight
    undirected: list[tuple[str, str, LinearForm]] = []
    weights: dict[tuple[str, str], LinearForm] = {}
    for position, record in enumerate(edge_records):
        where = f"edges[{position}]"
        try:
            source, target = str(record["from"]), str(record["to"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{where}: needs 'from' and 'to'") from exc
        weight = LinearForm(_parse_vector(record.get("weight"), dimension, f"{where}: weight"))
        if (source, target) in weights:
            raise FormatError(f"{where}: duplicate edge {source}>{target}")
        earlier = weights.get((target, source))
        if earlier is None:
            undirected.append((source, target, weight))
        elif weight != -earlier:
            raise FormatError(f"{where}: reversed weight is not the negative ({earlier} vs {weight})")
        weights[source, target] = weight

    labels = {str(k): str(v) for k, v in labels.items()}
    xi = _parse_vector(document["xi"], dimension, "xi") if document.get("xi") is not None else None
    rule = functools.partial(_listed_connection, raw_connection) if raw_connection else derive_connection
    try:
        graph = GkmGraph.from_undirected(dimension, vertices, undirected, rule, labels, xi)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc

    # validate in two steps: deriving the connection needs valid weights
    report = validate_axial(graph)
    if report.ok:
        _validate_connection(graph, report)  # the first read of graph.connection
    if not report.ok:
        raise FormatError("graph fails validation:\n" + str(report))
    return graph


def _edge_by_key(graph: GkmGraph, key: str) -> int:
    source, _, target = key.partition(">")
    eid = graph.edge_between(source, target)
    if eid is None:
        raise KeyError(f"no edge {key!r}")
    return eid


def _listed_connection(raw_connection: dict, graph: GkmGraph) -> dict[tuple[int, int], int]:
    """The connection a graph file lists, {"e|other": image} by edge keys,
    with the inverse theta_ebar(image) = other of each entry it leaves out."""
    listed = {}
    for key, value in raw_connection.items():
        try:
            if not isinstance(value, str):
                raise ValueError(f"image {value!r} is not an edge key")
            left, right = key.split("|")
            listed[_edge_by_key(graph, left), _edge_by_key(graph, right)] = _edge_by_key(graph, value)
        except (ValueError, KeyError) as exc:
            raise FormatError(f"connection entry {key!r}: {exc}") from exc
    inverses = {(graph.reverse(e), image): other for (e, other), image in listed.items()}
    return listed | {key: other for key, other in inverses.items() if key not in listed}


def derive_connection(graph: GkmGraph) -> dict[tuple[int, int], int]:
    """Derive the unique compatible connection from the axial function.

    For each oriented edge e and each e' at its source, the candidates are
    the edges e'' at the target with weight(e'') - weight(e') parallel to
    weight(e).  Loading fails when the compatible bijection is not unique;
    the error lists the ambiguous choices.
    """
    connection: dict[tuple[int, int], int] = {}
    problems: list[str] = []
    for edge in graph.edges:
        star, target_star = graph.out_edges(edge.source), graph.out_edges(edge.target)
        candidates = {edge.eid: [edge.reverse_id]}
        for other in star:
            if other != edge.eid:
                constant = functools.partial(_connection_constant, graph, edge.eid, other)
                candidates[other] = [image for image in target_star if constant(image) is not None]
        matchings = _count_perfect_matchings(star, candidates)
        if len(matchings) == 0:
            problems.append(f"edge {edge.key()}: no compatible connection")
        elif len(matchings) > 1:
            listing = "; ".join(
                f"{graph.edges[o].key()} -> " + ",".join(graph.edges[i].key() for i in candidates[o])
                for o in star
                if len(candidates[o]) > 1
            )
            problems.append(f"edge {edge.key()}: ambiguous connection ({listing})")
        else:
            for other, image in matchings[0].items():
                connection[(edge.eid, other)] = image
    if problems:
        raise GraphError("cannot derive connection:\n" + "\n".join(problems))
    return connection


def _count_perfect_matchings(
    left: Sequence[int], candidates: dict[int, list[int]]
) -> list[dict[int, int]]:
    """Backtracking enumeration of perfect matchings, stopping at the
    second: one matching is the connection, two make it ambiguous.  An
    explicit stack keeps the depth of a high-valence vertex off the call
    stack."""
    order = sorted(left, key=lambda o: len(candidates[o]))
    if not order:
        return [{}]
    found: list[dict[int, int]] = []
    used: set[int] = set()
    current: dict[int, int] = {}
    # tries[k]: the images of order[k] not yet tried under current's
    # images of order[:k]
    tries = [iter(candidates[order[0]])]
    while tries and len(found) < 2:
        other = order[len(tries) - 1]
        if other in current:
            used.discard(current.pop(other))
        image = next((i for i in tries[-1] if i not in used), None)
        if image is None:
            tries.pop()
            continue
        used.add(image)
        current[other] = image
        if len(tries) == len(order):
            found.append(dict(current))
        else:
            tries.append(iter(candidates[order[len(tries)]]))
    return found


def load_graph(path: Union[str, Path]) -> GkmGraph:
    text = Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(document, dict):
        raise FormatError(f"{path}: top-level value must be an object")
    return graph_from_document(document)


def build_graph(spec: str) -> GkmGraph:
    """Resolve a builder spec: 'complete:N', 'permutahedron:N' or 'file:PATH'."""
    kind, _, argument = spec.partition(":")
    sized = {"complete": complete_graph, "permutahedron": permutahedron}
    if kind in sized:
        if not re.fullmatch("[0-9]+", argument):  # int() would also take " 3", "+3", "0_3"
            raise ValueError(f"size {argument!r} is not a string of digits 0-9")
        return sized[kind](int(argument))
    if kind == "file":
        return load_graph(argument)
    if Path(spec).exists():
        return load_graph(spec)
    raise FormatError(f"unknown graph spec {spec!r}; use complete:N, permutahedron:N or file:PATH")
