"""Reference code that only the tests read.

No command runs these, so they live here and not in the package:
Lagrange interpolation through the symbolic Vandermonde inverse (an oracle
for the Newton interpolation of the Thom-class engine), the Thom class of
one edge, the integral over a cross-section, totally geodesic subgraphs,
evaluation at a rational point, the canonical text of a graph file, and
rho_form, the projection of one linear form along an edge weight in ints
(the package projects linear factors through their nodes instead).
"""

import itertools
import json
import math
import operator
from fractions import Fraction

from gkmcalc.cohomology import CohomologyClass
from gkmcalc.errors import GraphError, PolarizationError, ReductionError
from gkmcalc.graph import GkmGraph
from gkmcalc.symbolic import LinearForm, Polynomial, RationalExpr, _int_vector, format_rational, rat_vector

# -- Lagrange interpolation; the nodes are linear forms, the values polynomials


def _distinct(nodes):
    for a, b in itertools.combinations(nodes, 2):
        if (a - b).is_zero:
            raise ValueError(f"repeated interpolation node {a}")
    return nodes[0].dim


def elementary_symmetric(nodes, r, dim=None):
    if r < 0 or r > len(nodes):
        raise ValueError(f"elementary symmetric index {r} out of range 0..{len(nodes)}")
    dim = nodes[0].dim if dim is None else dim
    subsets = itertools.combinations(nodes, r)
    return sum((Polynomial.product_of_forms(subset, dim) for subset in subsets), Polynomial.zero(dim))


def elementary_symmetric_excluding(nodes, j, r):
    """sigma^j_r: node j left out."""
    return elementary_symmetric([node for i, node in enumerate(nodes) if i != j], r, nodes[j].dim)


def node_difference_factors(nodes, j):
    return [nodes[j] - nodes[l] for l in range(len(nodes)) if l != j]


def vandermonde_matrix(nodes):
    """a_ij = x_i^(j-1)."""
    _distinct(nodes)
    return [[node.as_polynomial() ** j for j in range(len(nodes))] for node in nodes]


def vandermonde_inverse(nodes):
    """b_ij = (-1)^(n-i) sigma^j_(n-i) / prod_(l != j) (x_j - x_l)."""
    _distinct(nodes)
    n = len(nodes)
    return [
        [
            RationalExpr.make(
                elementary_symmetric_excluding(nodes, j, n - i) * (-1) ** (n - i),
                node_difference_factors(nodes, j),
            )
            for j in range(n)
        ]
        for i in range(1, n + 1)
    ]


def vandermonde_inverse_powersum(nodes):
    """b_ij = sum_r (-1)^(n-i-r) sigma_(n-i-r) x_j^r / prod_(l != j) (x_j - x_l)."""
    dim = _distinct(nodes)
    n = len(nodes)
    sigmas = [elementary_symmetric(nodes, r) for r in range(n + 1)]
    return [
        [
            RationalExpr.make(
                sum(
                    (sigmas[n - i - r] * nodes[j].as_polynomial() ** r * (-1) ** (n - i - r) for r in range(n - i + 1)),
                    Polynomial.zero(dim),
                ),
                node_difference_factors(nodes, j),
            )
            for j in range(n)
        ]
        for i in range(1, n + 1)
    ]


def matrix_product(left, right):
    zero = RationalExpr.zero(left[0][0].dim)
    return [
        [sum((row[j] * right[j][k] for j in range(len(right))), zero) for k in range(len(right[0]))]
        for row in left
    ]


def lagrange_interpolate(points):
    """g_1..g_n of the interpolating polynomial sum g_i t^(i-1) through the
    (node, value) points: the Vandermonde inverse applied to the values."""
    inverse = vandermonde_inverse([node for node, _ in points])
    return [row[0] for row in matrix_product(inverse, [[value] for _, value in points])]


def interpolation_value(coefficients, node):
    """sum g_i node^(i-1)."""
    terms = (g * node.as_polynomial() ** i for i, g in enumerate(coefficients))
    return sum(terms, RationalExpr.zero(node.dim))


def partition_of_unity_sum(nodes):
    """sum_j prod_(l != j) (-x_l) / (x_j - x_l), identically 1."""
    dim = _distinct(nodes)
    n = len(nodes)
    terms = (
        RationalExpr.make(
            Polynomial.product_of_forms((-nodes[l] for l in range(n) if l != j), dim),
            node_difference_factors(nodes, j),
        )
        for j in range(n)
    )
    return sum(terms, RationalExpr.zero(dim))


def power_sum_over_differences(nodes, k):
    """sum_j x_j^(k-1) / prod_(l != j) (x_j - x_l): zero for k < n, one at k = n."""
    dim = _distinct(nodes)
    terms = (
        RationalExpr.make(node.as_polynomial() ** (k - 1), node_difference_factors(nodes, j))
        for j, node in enumerate(nodes)
    )
    return sum(terms, RationalExpr.zero(dim))


def row_reduce(rows):
    """The nonzero rows of the reduced row echelon form, over Q."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [value / rows[rank][col] for value in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rows[:rank]


def rho_form(form, edge_weight, xi):
    """Project a linear form into the annihilator of xi along an edge weight:
    rho_e(alpha) = alpha - (alpha(xi)/alpha_e(xi)) alpha_e.  With A/D = alpha,
    W/D' = alpha_e and X an int multiple of xi it is
    (A W(X) - A(X) W) / (W(X) D), one int expression."""
    direction, _ = _int_vector(xi)
    a, w = form._num, edge_weight._num
    wx = sum(map(operator.mul, w, direction))
    if wx == 0:
        raise PolarizationError(f"edge weight {edge_weight} pairs to zero with xi")
    ax = sum(map(operator.mul, a, direction))
    return LinearForm._canonical(tuple(wx * x - ax * y for x, y in zip(a, w)), wx * form._den)


def evaluate(poly, point):
    """The value of a polynomial at a rational point."""
    values = rat_vector(point)
    terms = poly.terms.items()
    return sum((c * math.prod(v**e for v, e in zip(values, expo)) for expo, c in terms), Fraction(0))


# -- classes and subgraphs


def edge_class(graph, eid):
    """The Thom class of one edge: at each end, the product of the other
    weights there; zero elsewhere."""
    edge, dim = graph.edges[eid], graph.dimension
    values = {v: Polynomial.zero(dim) for v in graph.vertices}
    for end, own in ((edge.source, eid), (edge.target, edge.reverse_id)):
        others = (graph.weight(e) for e in graph.out_edges(end) if e != own)
        values[end] = Polynomial.product_of_forms(others, dim)
    return CohomologyClass(graph, values)


def integrate_cross_section(F):
    """sum over the cut edges e of F_e / (alpha_e(xi) prod rho_e(alpha_e')),
    e' the other edges at the source of e: the pairing alpha_e(xi) is the
    multiplicity of the reduced point, and the product the restriction of
    the Thom class of e."""
    pol = F.polarization
    graph = pol.graph
    total = RationalExpr.zero(graph.dimension)
    for eid, value in sorted(F.values.items()):
        edge = graph.edges[eid]
        others = (e for e in graph.out_edges(edge.source) if e != eid)
        volume = (rho_form(graph.weight(e), edge.weight, pol.xi) for e in others)
        total = total + RationalExpr.make(value, volume).div_scalar(pol.pairings[eid])
    if not total.is_polynomial:
        raise ReductionError("cross-section integral did not reduce; class is outside the admitted image")
    return total.to_polynomial()


def totally_geodesic_subgraph(graph, subspace):
    """The edges whose weights lie in the span of `subspace`, with the
    restricted connection; the k-th kept edge of even id becomes edge 2k,
    its reversal 2k + 1, and isolated vertices are dropped."""
    basis = row_reduce(form.coeffs for form in subspace)
    keep = {edge.eid for edge in graph.edges if len(row_reduce(basis + [edge.weight.coeffs])) == len(basis)}
    if any(graph.reverse(eid) not in keep for eid in keep):
        raise GraphError("edge kept without its reversal; weights inconsistent")
    kept = [edge for edge in graph.edges[::2] if edge.eid in keep]
    new_id = {edge.eid + side: 2 * k + side for k, edge in enumerate(kept) for side in (0, 1)}
    connection = {}
    for (eid, other), image in graph.connection.items():
        if not {eid, other} <= keep:
            continue
        if image not in keep:
            raise GraphError("connection leaves the weight subspace; subgraph not totally geodesic")
        connection[new_id[eid], new_id[other]] = new_id[image]
    vertices = [v for v in graph.vertices if any(e in keep for e in graph.out_edges(v))]
    labels = {v: graph.labels[v] for v in vertices if v in graph.labels}
    undirected = [(edge.source, edge.target, edge.weight) for edge in kept]
    return GkmGraph.from_undirected(graph.dimension, vertices, undirected, connection, labels)


def dumps_graph(graph):
    """The canonical text of a graph file: one record per undirected edge."""
    key = {edge.eid: edge.key() for edge in graph.edges}
    document = {
        "dimension": graph.dimension,
        "valence": graph.valence,
        "vertices": list(graph.vertices),
        "edges": [
            {"from": edge.source, "to": edge.target, "weight": [format_rational(c) for c in edge.weight.coeffs]}
            for edge in graph.edges[::2]
        ],
        "connection": {f"{key[e]}|{key[other]}": key[image] for (e, other), image in sorted(graph.connection.items())},
    }
    if graph.labels:
        document["labels"] = dict(graph.labels)
    if graph.default_xi is not None:
        document["xi"] = [format_rational(c) for c in graph.default_xi]
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
