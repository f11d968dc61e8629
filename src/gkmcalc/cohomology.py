"""Cohomology classes on a GKM graph and the localization machinery.

A class is a map from vertices to polynomials such that the difference of
the values at the two endpoints of every edge is divisible by the edge
weight.  A class stores only its values; its degree is read from them, so
sums and products carry no degree rule.  These maps form a ring under
pointwise operations; it carries an integration operation (sum of values
over the products of vertex weights, which collapses to a polynomial).
Restriction to a cross-section of the Morse function lives in crosssection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .errors import CocycleError, GraphError, ReductionError
from .graph import GkmGraph
from .symbolic import LinearForm, Polynomial, RationalExpr, RationalLike, rat


@dataclass(frozen=True)
class CohomologyClass:
    """A vertex-to-polynomial map satisfying the edge divisibility condition."""

    graph: GkmGraph
    values: Mapping[str, Polynomial]

    def __post_init__(self):
        missing = set(self.graph.vertices) - set(self.values)
        if missing:
            raise CocycleError(f"values missing for vertices {sorted(missing)}")

    @property
    def degree(self) -> Optional[int]:
        """The common degree of the nonzero values; None when they differ
        (an inhomogeneous value counts as differing) or all are zero."""
        degrees = {poly.homogeneous_degree() for poly in self.values.values() if not poly.is_zero}
        return degrees.pop() if len(degrees) == 1 else None

    def __getitem__(self, vertex: str) -> Polynomial:
        return self.values[vertex]

    def __mul__(self, other) -> "CohomologyClass":
        if isinstance(other, CohomologyClass):
            if other.graph is not self.graph:
                raise GraphError("classes live on different graphs")
            return CohomologyClass(
                self.graph, {v: self.values[v] * other.values[v] for v in self.graph.vertices}
            )
        if isinstance(other, (int, Fraction, Polynomial)):
            return CohomologyClass(self.graph, {v: self.values[v] * other for v in self.graph.vertices})
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        if other.graph is not self.graph:
            raise GraphError("classes live on different graphs")
        return CohomologyClass(
            self.graph, {v: self.values[v] + other.values[v] for v in self.graph.vertices}
        )

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        return self + (other * Fraction(-1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self.graph is other.graph and all(
            self.values[v] == other.values[v] for v in self.graph.vertices
        )


def constant_class(graph: GkmGraph, value: RationalLike = 1) -> CohomologyClass:
    poly = Polynomial.constant(rat(value), graph.dimension)
    return CohomologyClass(graph, {v: poly for v in graph.vertices})


@dataclass
class CocycleWitness:
    edge_key: str
    weight: LinearForm
    difference: Polynomial

    def __str__(self) -> str:
        return (
            f"edge {self.edge_key}: weight {self.weight} does not divide "
            f"difference {self.difference}"
        )


def cocycle_witness(
    graph: GkmGraph, values: Mapping[str, Polynomial]
) -> Optional[CocycleWitness]:
    """First edge violating divisibility, or None when the map is a cocycle.
    Edges are read in edge order.  Equal endpoint values pass without a
    subtraction, and each (source value, target value, weight) is divided
    once: a class takes the same value at many vertices, a graph has few
    weights, and the first failure returns."""
    missing = set(graph.vertices) - set(values)
    if missing:
        raise CocycleError(f"values missing for vertices {sorted(missing)}")
    passed = set()
    for edge in graph.edges:
        if edge.eid % 2 == 1:
            continue
        source, target = values[edge.source], values[edge.target]
        if source == target:
            continue
        key = (source, target, edge.weight)
        if key in passed:
            continue
        difference = source - target
        if difference.divide_linear(edge.weight) is None:
            return CocycleWitness(edge.key(), edge.weight, difference)
        passed.add(key)
    return None


def integrate(f: CohomologyClass) -> Polynomial:
    """Localization integral: sum over vertices of value / product of weights.

    The nonzero terms are added one RationalExpr at a time (the Euler
    classes of K_n share few factors, so one common denominator would raise
    the numerators' degree).  The rational sum collapses to a polynomial
    exactly when the input satisfies the cocycle condition; failure to
    reduce raises and names the condition.
    """
    graph = f.graph
    total = RationalExpr.zero(graph.dimension)
    for v in graph.vertices:
        if not f.values[v].is_zero:
            total = total + RationalExpr.make(f.values[v], map(graph.weight, graph.out_edges(v)))
    if not total.is_polynomial:
        raise ReductionError("localization sum did not reduce to a polynomial; input is not a cocycle")
    return total.to_polynomial()
