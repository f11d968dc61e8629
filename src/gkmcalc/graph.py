"""GKM graph data model: axial function, connection, polarization.

A GKM graph is a finite d-valent graph whose oriented edges carry weights
(linear forms) with alpha_ebar = -alpha_e, pairwise linearly independent at
every vertex, together with a connection: for each oriented edge e a
bijection theta_e between the edge stars of its endpoints satisfying
theta_ebar = theta_e^{-1}, theta_e(e) = ebar and the compatibility rule
alpha_{theta_e(e')} = alpha_{e'} + c * alpha_e with rational c.

A polarization is a vector xi pairing nonzero with every weight, with no
ascending loop and one vertex of index zero per component.  It orients edges
(ascending when the pairing is positive), defines the index sigma_p (number
of descending edges at p) and a Morse function phi that strictly increases
along ascending edges; longest_path_morse builds all of it at once.
"""

from __future__ import annotations

import itertools
import operator
import types
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import DimensionError, GraphError, PolarizationError
from .symbolic import LinearForm, RationalLike, _int_vector, format_rational, rat, rat_vector, rho_form


@dataclass(frozen=True)
class OrientedEdge:
    eid: int
    source: str
    target: str
    weight: LinearForm

    @property
    def reverse_id(self) -> int:
        return self.eid ^ 1

    def key(self) -> str:
        return f"{self.source}>{self.target}"


class GkmGraph:
    """Immutable-by-convention graph with axial function and connection."""

    def __init__(
        self,
        dimension: int,
        vertices: Sequence[str],
        edges: Sequence[OrientedEdge],
        connection: Optional[dict[tuple[int, int], int]] = None,
        labels: Optional[dict[str, str]] = None,
        default_xi: Optional[tuple[Fraction, ...]] = None,
    ):
        self.dimension = dimension
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[OrientedEdge, ...] = tuple(edges)
        self.connection = dict(connection) if connection else {}
        self.labels = dict(labels) if labels else {}
        self.default_xi = default_xi
        self._vertex_set = set(self.vertices)
        if len(self._vertex_set) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        self._out: dict[str, list[int]] = {v: [] for v in self.vertices}
        self._by_endpoints: dict[tuple[str, str], int] = {}
        for edge in self.edges:
            if edge.source not in self._vertex_set or edge.target not in self._vertex_set:
                raise GraphError(f"edge {edge.key()} references unknown vertex")
            self._out[edge.source].append(edge.eid)
            if (edge.source, edge.target) in self._by_endpoints:
                raise GraphError(f"parallel edge {edge.key()} (simple graphs only)")
            self._by_endpoints[(edge.source, edge.target)] = edge.eid

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_undirected(
        dimension: int,
        vertices: Sequence[str],
        undirected_edges: Sequence[tuple[str, str, LinearForm]],
        connection: Optional[dict[tuple[int, int], int]] = None,
        labels: Optional[dict[str, str]] = None,
        default_xi: Optional[tuple[Fraction, ...]] = None,
    ) -> "GkmGraph":
        """Build from one record per undirected edge; reversals get -weight."""
        edges = []
        for source, target, weight in undirected_edges:
            eid = len(edges)
            edges.append(OrientedEdge(eid, source, target, weight))
            edges.append(OrientedEdge(eid + 1, target, source, -weight))
        return GkmGraph(dimension, vertices, edges, connection, labels, default_xi)

    # -- basic queries -----------------------------------------------------

    @property
    def valence(self) -> int:
        """Maximal out-degree; validation checks it is uniform."""
        if not self.vertices:
            return 0
        return max(len(self._out[v]) for v in self.vertices)

    def out_edges(self, vertex: str) -> tuple[int, ...]:
        return tuple(self._out[vertex])

    def reverse(self, eid: int) -> int:
        return self.edges[eid].reverse_id

    def edge_between(self, source: str, target: str) -> Optional[int]:
        return self._by_endpoints.get((source, target))

    def weight(self, eid: int) -> LinearForm:
        return self.edges[eid].weight

    def label(self, vertex: str) -> str:
        return self.labels.get(vertex, vertex)

    def vertex_by_label(self, label: str) -> str:
        if label in self._vertex_set:
            return label
        for vertex, alias in self.labels.items():
            if alias == label:
                return vertex
        raise GraphError(f"unknown vertex {label!r}")

    def theta(self, eid: int, other: int) -> int:
        """Connection map along edge eid applied to an edge at its source."""
        try:
            return self.connection[(eid, other)]
        except KeyError:
            raise GraphError(
                f"connection undefined for ({self.edges[eid].key()}, {self.edges[other].key()})"
            ) from None

    def components(self) -> list[tuple[str, ...]]:
        seen: set[str] = set()
        out = []
        for start in self.vertices:
            if start in seen:
                continue
            stack = [start]
            comp = []
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for eid in self._out[v]:
                    w = self.edges[eid].target
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            out.append(tuple(sorted(comp)))
        return out


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    connection_constants: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid GKM graph with compatible connection"
        return "\n".join(self.violations)


def validate(graph: GkmGraph) -> ValidationReport:
    """Check every structural axiom; failures become report entries."""
    report = validate_axial(graph)
    _validate_connection(graph, report)
    return report


def validate_axial(graph: GkmGraph) -> ValidationReport:
    """The connection-independent axioms: valence, weight involution, GKM."""
    report = ValidationReport()
    add = report.violations.append

    degrees = {len(graph.out_edges(v)) for v in graph.vertices}
    if len(degrees) > 1:
        add(f"graph is not uniformly valent: out-degrees {sorted(degrees)}")

    for edge in graph.edges:
        if edge.weight.dim != graph.dimension:
            add(f"edge {edge.key()}: weight dimension {edge.weight.dim} != {graph.dimension}")
        if edge.weight.is_zero:
            add(f"edge {edge.key()}: zero weight")
        rev = graph.edges[edge.reverse_id]
        if rev.source != edge.target or rev.target != edge.source:
            add(f"edge {edge.key()}: reversal pairing broken")
        elif not (rev.weight + edge.weight).is_zero:
            add(
                f"edge {edge.key()}: reversed weight is not the negative "
                f"({edge.weight} vs {rev.weight})"
            )

    for vertex in graph.vertices:
        eids = graph.out_edges(vertex)
        for a, b in itertools.combinations(eids, 2):
            wa, wb = graph.weight(a), graph.weight(b)
            if not wa.is_zero and not wb.is_zero and wa.proportional(wb):
                add(
                    f"vertex {graph.label(vertex)}: weights of {graph.edges[a].key()} and "
                    f"{graph.edges[b].key()} are parallel (GKM condition fails)"
                )
    return report


def _validate_connection(graph: GkmGraph, report: ValidationReport) -> None:
    add = report.violations.append
    for edge in graph.edges:
        source_star = graph.out_edges(edge.source)
        target_star = set(graph.out_edges(edge.target))
        images = []
        for other in source_star:
            key = (edge.eid, other)
            if key not in graph.connection:
                add(f"connection missing entry for ({edge.key()}, {graph.edges[other].key()})")
                continue
            image = graph.connection[key]
            images.append(image)
            if image not in target_star:
                add(
                    f"connection image of ({edge.key()}, {graph.edges[other].key()}) "
                    "is not an edge at the target"
                )
                continue
            if other == edge.eid:
                if image != edge.reverse_id:
                    add(f"connection along {edge.key()} does not send the edge to its reversal")
                continue
            back = graph.connection.get((edge.reverse_id, image))
            if back != other:
                add(
                    f"connection along {edge.key()} is not inverted by the reversed edge "
                    f"at {graph.edges[other].key()}"
                )
            diff = graph.weight(image) - graph.weight(other)
            if diff.is_zero:
                report.connection_constants[(edge.eid, other)] = Fraction(0)
            elif diff.proportional(edge.weight):
                ratio = _proportionality_ratio(diff, edge.weight)
                report.connection_constants[(edge.eid, other)] = ratio
            else:
                add(
                    f"connection along {edge.key()}: weight of image of "
                    f"{graph.edges[other].key()} differs by a non-multiple of the edge weight"
                )
        if len(set(images)) != len(source_star):
            add(f"connection along {edge.key()} is not a bijection of edge stars")


def _proportionality_ratio(form: LinearForm, base: LinearForm) -> Fraction:
    for a, b in zip(form.coeffs, base.coeffs):
        if b != 0:
            return a / b
    raise ValueError("zero base form")


# ---------------------------------------------------------------------------
# polarizations


@dataclass(frozen=True)
class Polarization:
    """Orientation, indices and Morse function phi induced by a vector xi.

    Built only by longest_path_morse, which checks every condition; the
    pairings, sigma, phi and the ascending and descending edges at each
    vertex are read-only mappings; vertices_by_level returns one tuple, sorted
    once."""

    graph: GkmGraph
    xi: tuple[Fraction, ...]
    pairings: Mapping[int, Fraction]
    sigma: Mapping[str, int]
    phi: Mapping[str, Fraction]
    self_indexing: bool
    _ascending: Mapping[str, tuple[int, ...]]
    _descending: Mapping[str, tuple[int, ...]]
    _by_level: tuple[str, ...]

    def ascending(self, eid: int) -> bool:
        return eid in self._ascending[self.graph.edges[eid].source]

    def ascending_out(self, vertex: str) -> tuple[int, ...]:
        return self._ascending[vertex]

    def descending_out(self, vertex: str) -> tuple[int, ...]:
        return self._descending[vertex]

    def level(self, vertex: str) -> Fraction:
        return self.phi[vertex]

    def vertices_by_level(self) -> tuple[str, ...]:
        return self._by_level

    def minimum_vertices(self) -> list[str]:
        return [v for v in self.graph.vertices if self.sigma[v] == 0]

    def reversed(self) -> "Polarization":
        return longest_path_morse(self.graph, tuple(-x for x in self.xi))

    def critical_levels(self) -> list[Fraction]:
        return sorted(self.phi.values())

    def is_regular(self, c: RationalLike) -> bool:
        value = rat(c)
        return all(value != level for level in self.critical_levels())


def _longest_ascending_paths(
    graph: GkmGraph, ascending: Mapping[str, tuple[int, ...]], descending: Mapping[str, tuple[int, ...]]
) -> dict[str, int]:
    """Longest ascending path ending at each vertex, by Kahn's algorithm: a
    vertex leaves the queue after all its predecessors, so its length is final
    when it relaxes its ascending edges.  Raises on an ascending loop."""
    indegree = {v: len(descending[v]) for v in graph.vertices}
    longest = {v: 0 for v in graph.vertices}
    queue = [v for v in graph.vertices if indegree[v] == 0]
    done = 0
    while queue:
        v = queue.pop()
        done += 1
        for eid in ascending[v]:
            w = graph.edges[eid].target
            longest[w] = max(longest[w], longest[v] + 1)
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if done != len(graph.vertices):
        raise PolarizationError("ascending loop: no Morse function exists for this xi")
    return longest


def longest_path_morse(graph: GkmGraph, xi: Sequence[RationalLike]) -> Polarization:
    """The polarization of the graph by xi, with its Morse function.

    Fails on a wrong length of xi, a zero pairing, an ascending loop, or a
    component with other than one vertex of index zero.

    phi(p) = L(p) + rank(p)/(|V|+1) where L(p) is the length of the longest
    ascending path ending at p and rank is the position of the vertex name
    in sorted order; the fractional part makes phi injective while keeping
    it strictly increasing along ascending edges.  The polarization is
    self-indexing when L == sigma everywhere.
    """
    vector = rat_vector(xi)
    if len(vector) != graph.dimension:
        raise PolarizationError(
            f"xi has length {len(vector)}, graph dimension is {graph.dimension}"
        )
    # each pairing is an int dot product over the forms' and xi's denominators
    direction, scale = _int_vector(vector)
    signs: dict[int, int] = {}
    pairings: dict[int, Fraction] = {}
    for edge in graph.edges:
        weight = edge.weight
        if weight.dim != len(direction):
            raise DimensionError(
                f"form of dimension {weight.dim} paired with vector of length {len(direction)}"
            )
        value = sum(map(operator.mul, weight._num, direction))
        if value == 0:
            raise PolarizationError(
                f"not a polarization: weight of {edge.key()} pairs to zero with "
                f"xi=({', '.join(map(format_rational, vector))})"
            )
        signs[edge.eid] = value
        pairings[edge.eid] = Fraction(value, weight._den * scale)
    ascending: dict[str, tuple[int, ...]] = {}
    descending: dict[str, tuple[int, ...]] = {}
    for v in graph.vertices:
        ascending[v] = tuple(e for e in graph.out_edges(v) if signs[e] > 0)
        descending[v] = tuple(e for e in graph.out_edges(v) if signs[e] < 0)
    sigma = {v: len(descending[v]) for v in graph.vertices}
    longest = _longest_ascending_paths(graph, ascending, descending)

    for comp in graph.components():
        minima = [v for v in comp if sigma[v] == 0]
        if len(minima) != 1 and len(comp) > 1:
            raise PolarizationError(
                f"component {comp} has {len(minima)} vertices of index zero; expected one"
            )

    rank = {v: i for i, v in enumerate(sorted(graph.vertices))}
    denom = len(graph.vertices) + 1
    phi = {v: longest[v] + Fraction(rank[v], denom) for v in graph.vertices}
    self_indexing = all(longest[v] == sigma[v] for v in graph.vertices)
    return Polarization(
        graph,
        vector,
        types.MappingProxyType(pairings),
        types.MappingProxyType(sigma),
        types.MappingProxyType(phi),
        self_indexing,
        types.MappingProxyType(ascending),
        types.MappingProxyType(descending),
        tuple(sorted(graph.vertices, key=lambda v: (longest[v], rank[v]))),
    )


def polarize(graph: GkmGraph, xi: Optional[Sequence[RationalLike]] = None) -> Polarization:
    """Morse polarization from an explicit xi, the graph default, or a search."""
    if xi is None:
        xi = graph.default_xi
    if xi is None:
        xi = search_polarization(graph)
    return longest_path_morse(graph, xi)


def betti(graph: GkmGraph, xi: Optional[Sequence[RationalLike]] = None) -> tuple[int, ...]:
    """Betti numbers b_0..b_d: vertex counts by index; xi-independent.

    xi defaults as in polarize."""
    sigma = polarize(graph, xi).sigma
    counts = [0] * (graph.valence + 1)
    for v in graph.vertices:
        counts[sigma[v]] += 1
    return tuple(counts)


def check_generic(graph: GkmGraph, xi: Sequence[RationalLike], vertex: str) -> bool:
    """Quadruple inequality between projected weight ratios at a vertex.

    (1/alpha_{e1}(xi)) rho_{e2} alpha_{e1} != (1/alpha_{e3}(xi)) rho_{e4}
    alpha_{e3} for all edge quadruples at the vertex except the forced
    coincidences (e1=e2 and e3=e4, or e1=e3 and e2=e4).
    """
    vector = rat_vector(xi)
    eids = graph.out_edges(vertex)
    values: dict[tuple[int, int], LinearForm] = {}
    for e1 in eids:
        w1 = graph.weight(e1)
        denom = w1.pair(vector)
        if denom == 0:
            raise PolarizationError(f"weight of {graph.edges[e1].key()} pairs to zero")
        for e2 in eids:
            values[(e1, e2)] = rho_form(w1, graph.weight(e2), vector).scale(1 / denom)
    for pair_a, pair_b in itertools.combinations(values.keys(), 2):
        if pair_a[0] == pair_a[1] and pair_b[0] == pair_b[1]:
            continue  # both sides are zero by construction
        if (values[pair_a] - values[pair_b]).is_zero:
            return False
    return True


def search_polarization(graph: GkmGraph) -> tuple[Fraction, ...]:
    """Deterministic search for a polarizing vector with small integer entries.

    Enumerates integer vectors by increasing max-norm, up to 16
    (lexicographic within a shell), and returns the first one that
    longest_path_morse accepts and that passes the genericity check at
    every vertex.
    """
    n, max_norm = graph.dimension, 16
    for norm in range(1, max_norm + 1):
        for candidate in itertools.product(range(-norm, norm + 1), repeat=n):
            if max(abs(c) for c in candidate) != norm:
                continue
            vector = rat_vector(candidate)
            try:
                longest_path_morse(graph, vector)
            except PolarizationError:
                continue
            if not all(check_generic(graph, vector, v) for v in graph.vertices):
                continue
            return vector
    raise PolarizationError(
        f"no generic polarization with integer entries of max-norm <= {max_norm}"
    )


# ---------------------------------------------------------------------------
# totally geodesic subgraphs


def _row_reduce(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gaussian elimination over Q; returns the nonzero reduced rows."""
    matrix = [row[:] for row in rows]
    pivots = []
    col_count = len(matrix[0]) if matrix else 0
    pivot_row = 0
    for col in range(col_count):
        pivot = None
        for r in range(pivot_row, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        scale = matrix[pivot_row][col]
        matrix[pivot_row] = [value / scale for value in matrix[pivot_row]]
        for r in range(len(matrix)):
            if r != pivot_row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(matrix):
            break
    return [row for row in matrix[:pivot_row]]


def in_span(form: LinearForm, basis_rows: list[list[Fraction]]) -> bool:
    if form.is_zero:
        return True
    augmented = _row_reduce(basis_rows + [list(form.coeffs)])
    return len(augmented) == len(basis_rows)


def totally_geodesic_subgraph(graph: GkmGraph, subspace: Sequence[LinearForm]) -> GkmGraph:
    """Subgraph of edges whose weights lie in the span of the given forms.

    The result is closed under the restricted connection and inherits the
    axial function; isolated vertices are dropped.  It may be disconnected
    or edgeless, and its valence is uniform on each connected component.
    """
    basis = _row_reduce([list(f.coeffs) for f in subspace if not f.is_zero])
    keep = [edge.eid for edge in graph.edges if in_span(edge.weight, basis)]
    keep_set = set(keep)
    vertices = [v for v in graph.vertices if any(e in keep_set for e in graph.out_edges(v))]
    old_to_new: dict[int, int] = {}
    new_edges: list[OrientedEdge] = []
    for eid in keep:
        if eid in old_to_new:
            continue
        edge = graph.edges[eid]
        rev = edge.reverse_id
        if rev not in keep_set:
            raise GraphError("edge kept without its reversal; weights inconsistent")
        old_to_new[eid] = len(new_edges)
        new_edges.append(OrientedEdge(len(new_edges), edge.source, edge.target, edge.weight))
        redge = graph.edges[rev]
        old_to_new[rev] = len(new_edges)
        new_edges.append(OrientedEdge(len(new_edges), redge.source, redge.target, redge.weight))
    connection = {}
    for eid in keep:
        for other in keep:
            if graph.edges[other].source != graph.edges[eid].source:
                continue
            image = graph.connection.get((eid, other))
            if image is None:
                continue
            if image not in keep_set:
                raise GraphError(
                    "connection leaves the weight subspace; subgraph not totally geodesic"
                )
            connection[(old_to_new[eid], old_to_new[other])] = old_to_new[image]
    labels = {v: graph.labels[v] for v in vertices if v in graph.labels}
    return GkmGraph(graph.dimension, vertices, new_edges, connection, labels)
