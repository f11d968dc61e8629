"""Constructors for the built-in example graphs and the graph file loader.

Two families cover the worked examples: the complete graph on n vertices
(projective (n-1)-space, weight x_i - x_j on the edge p_i -> p_j) and the
permutahedron (Cayley graph of S_n with all transpositions, the flag
variety).  Custom graphs load from a JSON document; when the connection is
omitted the loader derives the unique compatible one or fails listing the
ambiguities.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import FormatError, GraphError
from .graph import GkmGraph, OrientedEdge, validate, validate_axial
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
    undirected = []
    for i in range(n):
        for j in range(i + 1, n):
            undirected.append((names[i], names[j], points[i] - points[j]))
    xi = rat_vector(default_xi) if default_xi is not None else None
    graph = GkmGraph.from_undirected(dim, names, undirected, default_xi=xi)
    connection = {}
    for edge in graph.edges:
        for other in graph.out_edges(edge.source):
            third = graph.edges[other].target
            image = edge.reverse_id if other == edge.eid else graph.edge_between(edge.target, third)
            connection[(edge.eid, other)] = image
    graph.connection.update(connection)
    return graph


def complete_graph(n: int) -> GkmGraph:
    """Complete graph on n vertices with weights x_i - x_j; xi = (n, ..., 1)."""
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    points = [LinearForm.basis(i, n) for i in range(n)]
    return complete_graph_on_points(points, default_xi=list(range(n, 0, -1)))


def _one_line_name(perm: tuple[int, ...]) -> str:
    return "".join(str(v) for v in perm)


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
    (pi*t, pi*t'*t).  With xi = (1, ..., n), word length is a self-indexing
    Morse function.
    """
    if n < 2:
        raise GraphError("permutahedron needs n >= 2")
    if n > 9:
        raise GraphError("one-line vertex names support n <= 9")
    perms = list(itertools.permutations(range(1, n + 1)))
    names = [_one_line_name(p) for p in perms]
    transpositions = list(itertools.combinations(range(n), 2))
    # e_j - e_i, the weight of pi -> pi*t_ij when pi(i) < pi(j)
    weights = {
        (i, j): LinearForm._canonical(tuple((k == j) - (k == i) for k in range(n)), 1)
        for i, j in transpositions
    }
    name_of = dict(zip(perms, names))
    undirected = []
    moves = []  # the transposition t of each undirected edge pi -- pi*t
    for perm in perms:
        for i, j in transpositions:
            if perm[i] < perm[j]:  # perm < perm*t_ij
                undirected.append((name_of[perm], name_of[_swap(perm, i, j)], weights[i, j]))
                moves.append((i, j))
    labels = dict(FLAG3_LABELS) if n == 3 else None
    graph = GkmGraph.from_undirected(
        n, names, undirected, labels=labels, default_xi=rat_vector(range(1, n + 1))
    )

    # oriented edges 2k and 2k + 1 both move by moves[k]
    edge_of = {(edge.source, moves[edge.eid // 2]): edge.eid for edge in graph.edges}
    # t*u*t for transpositions t, u: u with its positions moved by t
    conjugate = {}
    for t in transpositions:
        moved = dict(zip(t, reversed(t)))
        for u in transpositions:
            conjugate[t, u] = tuple(sorted(moved.get(k, k) for k in u))
    connection = {}
    for edge in graph.edges:
        t = moves[edge.eid // 2]
        # pi*t'*t = (pi*t)*(t*t'*t); t' = t gives the reversal
        for other in graph.out_edges(edge.source):
            connection[(edge.eid, other)] = edge_of[edge.target, conjugate[t, moves[other // 2]]]
    graph.connection.update(connection)
    return graph


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

    A connection that is left out is derived (derive_connection), which
    raises GraphError when it is not unique."""
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

    # one entry per undirected edge: the listed orientation plus an optional
    # explicitly-listed reversal (validation checks the weights are negatives)
    pairs: list[list] = []
    index: dict[tuple[str, str], int] = {}
    for position, record in enumerate(edge_records):
        where = f"edges[{position}]"
        try:
            source, target = str(record["from"]), str(record["to"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{where}: needs 'from' and 'to'") from exc
        weight = LinearForm(_parse_vector(record.get("weight"), dimension, f"{where}: weight"))
        if (source, target) in index:
            raise FormatError(f"{where}: duplicate edge {source}>{target}")
        if (target, source) in index and pairs[index[(target, source)]][1] is None:
            pairs[index[(target, source)]][1] = (source, target, weight)
            index[(source, target)] = index[(target, source)]
        else:
            index[(source, target)] = len(pairs)
            pairs.append([(source, target, weight), None])

    complete: list[OrientedEdge] = []
    for first, second in pairs:
        source, target, weight = first
        eid = len(complete)
        complete.append(OrientedEdge(eid, source, target, weight))
        if second is None:
            complete.append(OrientedEdge(eid + 1, target, source, -weight))
        else:
            complete.append(OrientedEdge(eid + 1, second[0], second[1], second[2]))

    labels = {str(k): str(v) for k, v in labels.items()}
    xi = _parse_vector(document["xi"], dimension, "xi") if document.get("xi") is not None else None
    try:
        graph = GkmGraph(dimension, vertices, complete, labels=labels, default_xi=xi)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc

    axial = validate_axial(graph)
    if not axial.ok:
        raise FormatError("graph fails validation:\n" + str(axial))

    if raw_connection:
        connection = {}
        for key, value in raw_connection.items():
            try:
                if not isinstance(value, str):
                    raise ValueError(f"image {value!r} is not an edge key")
                left, right = key.split("|")
                e = _edge_by_key(graph, left)
                other = _edge_by_key(graph, right)
                image = _edge_by_key(graph, value)
            except (ValueError, KeyError) as exc:
                raise FormatError(f"connection entry {key!r}: {exc}") from exc
            connection[(e, other)] = image
        graph.connection.update(connection)
        _complete_connection_inverses(graph)
    else:
        graph.connection.update(derive_connection(graph))

    report = validate(graph)
    if not report.ok:
        raise FormatError("graph fails validation:\n" + str(report))
    return graph


def _edge_by_key(graph: GkmGraph, key: str) -> int:
    source, _, target = key.partition(">")
    eid = graph.edge_between(source, target)
    if eid is None:
        raise KeyError(f"no edge {key!r}")
    return eid


def _complete_connection_inverses(graph: GkmGraph) -> None:
    """Fill theta_ebar entries derivable as inverses of listed ones."""
    additions = {}
    for (e, other), image in graph.connection.items():
        rev = graph.edges[e].reverse_id
        if (rev, image) not in graph.connection:
            additions[(rev, image)] = other
    graph.connection.update(additions)


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
        star = [e for e in graph.out_edges(edge.source)]
        target_star = [e for e in graph.out_edges(edge.target)]
        candidates: dict[int, list[int]] = {}
        for other in star:
            if other == edge.eid:
                candidates[other] = [edge.reverse_id]
                continue
            options = []
            for image in target_star:
                diff = graph.weight(image) - graph.weight(other)
                if diff.is_zero or diff.proportional(edge.weight):
                    options.append(image)
            candidates[other] = options
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


def _count_perfect_matchings(left: list[int], candidates: dict[int, list[int]]) -> list[dict[int, int]]:
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
    if kind == "complete":
        return complete_graph(int(argument))
    if kind == "permutahedron":
        return permutahedron(int(argument))
    if kind == "file":
        return load_graph(argument)
    if Path(spec).exists():
        return load_graph(spec)
    raise FormatError(f"unknown graph spec {spec!r}; use complete:N, permutahedron:N or file:PATH")
