"""Cohomology classes on a GKM graph and the localization machinery.

A class is a map from vertices to polynomials such that the difference of
the values at the two endpoints of every edge is divisible by the edge
weight.  These maps form a ring under pointwise operations; it carries an
integration operation (sum of values over the products of vertex weights,
which collapses to a polynomial) and, for every regular level of the Morse
function, a restriction to the cross-section obtained by projecting along
each cut edge into the annihilator of the polarizing vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional

from .errors import CocycleError, GraphError, PolarizationError, ReductionError
from .graph import GkmGraph, Polarization
from .symbolic import (
    LinearForm,
    Polynomial,
    RationalExpr,
    RationalLike,
    rat,
    rho_form,
    rho_poly,
)


@dataclass(frozen=True)
class CohomologyClass:
    """A vertex-to-polynomial map satisfying the edge divisibility condition.

    The degree field is optional metadata; when set, every value must be
    homogeneous of that degree.
    """

    graph: GkmGraph
    values: Mapping[str, Polynomial]
    degree: Optional[int] = None

    def __post_init__(self):
        missing = set(self.graph.vertices) - set(self.values)
        if missing:
            raise CocycleError(f"values missing for vertices {sorted(missing)}")
        if self.degree is not None:
            for vertex, poly in self.values.items():
                hom = poly.homogeneous_degree()
                if hom not in (-1, self.degree):
                    raise CocycleError(
                        f"value at {vertex} is not homogeneous of degree {self.degree}"
                    )

    def __getitem__(self, vertex: str) -> Polynomial:
        return self.values[vertex]

    def support(self) -> tuple[str, ...]:
        return tuple(v for v in self.graph.vertices if not self.values[v].is_zero)

    def __mul__(self, other) -> "CohomologyClass":
        if isinstance(other, CohomologyClass):
            if other.graph is not self.graph:
                raise GraphError("classes live on different graphs")
            degree = None
            if self.degree is not None and other.degree is not None:
                degree = self.degree + other.degree
            return CohomologyClass(
                self.graph,
                {v: self.values[v] * other.values[v] for v in self.graph.vertices},
                degree,
            )
        if isinstance(other, (int, Fraction, Polynomial)):
            degree = self.degree
            if isinstance(other, Polynomial) and degree is not None:
                h = other.homogeneous_degree()
                degree = degree + h if h is not None and h >= 0 else None
            return CohomologyClass(
                self.graph, {v: self.values[v] * other for v in self.graph.vertices}, degree
            )
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        if other.graph is not self.graph:
            raise GraphError("classes live on different graphs")
        degree = self.degree if self.degree == other.degree else None
        return CohomologyClass(
            self.graph,
            {v: self.values[v] + other.values[v] for v in self.graph.vertices},
            degree,
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
    return CohomologyClass(graph, {v: poly for v in graph.vertices}, degree=0)


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
    Equal endpoint values pass without a subtraction."""
    missing = set(graph.vertices) - set(values)
    if missing:
        raise CocycleError(f"values missing for vertices {sorted(missing)}")
    for edge in graph.edges:
        if edge.eid % 2 == 1:
            continue
        source, target = values[edge.source], values[edge.target]
        if source == target:
            continue
        difference = source - target
        if difference.divide_linear(edge.weight) is None:
            return CocycleWitness(edge.key(), edge.weight, difference)
    return None


def integrate(f: CohomologyClass) -> Polynomial:
    """Localization integral: sum over vertices of value / product of weights.

    The rational sum collapses to a polynomial exactly when the input
    satisfies the cocycle condition; failure to reduce raises and names the
    condition.
    """
    graph = f.graph
    return _localization_sum(
        graph.dimension,
        ((f.values[v], map(graph.weight, graph.out_edges(v)), 1) for v in graph.vertices),
        "localization sum did not reduce to a polynomial; input is not a cocycle",
    )


def _localization_sum(
    dim: int, terms: Iterable[tuple[Polynomial, Iterable[LinearForm], RationalLike]], failure: str
) -> Polynomial:
    """Sum of value / (scalar * product of forms) over the nonzero terms,
    one RationalExpr at a time (the Euler classes of K_n share few factors,
    so one common denominator would raise the numerators' degree); a sum
    that is not a polynomial raises ReductionError(failure)."""
    total = RationalExpr.zero(dim)
    for value, forms, scalar in terms:
        if value.is_zero:
            continue
        term = RationalExpr.make(value, forms)
        total = total + (term if scalar == 1 else term.div_scalar(scalar))
    if not total.is_polynomial:
        raise ReductionError(failure)
    return total.to_polynomial()


def edge_class(graph: GkmGraph, eid: int) -> CohomologyClass:
    """Thom class of the single-edge subgraph: products of the other weights.

    Value at the source is the product of the weights of the other edges
    there, similarly at the target, zero elsewhere; homogeneous of degree
    d - 1.
    """
    edge = graph.edges[eid]
    dim = graph.dimension
    values = {v: Polynomial.zero(dim) for v in graph.vertices}
    values[edge.source] = Polynomial.product_of_forms(
        (graph.weight(e) for e in graph.out_edges(edge.source) if e != eid), dim
    )
    values[edge.target] = Polynomial.product_of_forms(
        (
            graph.weight(e)
            for e in graph.out_edges(edge.target)
            if e != edge.reverse_id
        ),
        dim,
    )
    return CohomologyClass(graph, values, degree=graph.valence - 1)


# ---------------------------------------------------------------------------
# cross-sections of the Morse function


@dataclass(frozen=True)
class CrossSectionClass:
    """Values indexed by the ascending edges cut by a regular level.

    Every value lies in the annihilator subring of xi (its directional
    derivative along xi vanishes).
    """

    polarization: Polarization
    level: Fraction
    values: Mapping[int, Polynomial]

    @property
    def graph(self) -> GkmGraph:
        return self.polarization.graph

    def cut_edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    def __getitem__(self, eid: int) -> Polynomial:
        return self.values[eid]

    def __mul__(self, other) -> "CrossSectionClass":
        if isinstance(other, CrossSectionClass):
            if other.values.keys() != self.values.keys():
                raise GraphError("cross-section classes at different levels")
            return CrossSectionClass(
                self.polarization,
                self.level,
                {e: self.values[e] * other.values[e] for e in self.values},
            )
        if isinstance(other, (int, Fraction, Polynomial)):
            return CrossSectionClass(
                self.polarization, self.level, {e: self.values[e] * other for e in self.values}
            )
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossSectionClass):
            return NotImplemented
        return (
            self.level == other.level
            and self.values.keys() == other.values.keys()
            and all(self.values[e] == other.values[e] for e in self.values)
        )


def cut_edge_ids(polarization: Polarization, c: RationalLike) -> tuple[int, ...]:
    """Ascending edges e with phi(i(e)) < c < phi(t(e)), in edge-id order."""
    level = rat(c)
    if not polarization.is_regular(level):
        raise PolarizationError(f"{level} is a critical value of the Morse function")
    graph = polarization.graph
    cut = []
    for edge in graph.edges:
        if not polarization.ascending(edge.eid):
            continue
        if polarization.level(edge.source) < level < polarization.level(edge.target):
            cut.append(edge.eid)
    return tuple(cut)


def kirwan(f: CohomologyClass, polarization: Polarization, c: RationalLike) -> CrossSectionClass:
    """Restrict a class to the level-c cross-section via the xi-projection.

    The value at a cut edge is rho_e applied to the value at either
    endpoint; the two computations must agree, which re-checks the cocycle
    condition along every cut edge.
    """
    graph = polarization.graph
    if f.graph is not graph:
        raise GraphError("class and polarization live on different graphs")
    xi = polarization.xi
    values: dict[int, Polynomial] = {}
    for eid in cut_edge_ids(polarization, c):
        edge = graph.edges[eid]
        below = rho_poly(f.values[edge.source], edge.weight, xi)
        above = rho_poly(f.values[edge.target], edge.weight, xi)
        if below != above:
            raise CocycleError(
                f"projections along {edge.key()} disagree; input is not a cocycle"
            )
        values[eid] = below
    return CrossSectionClass(polarization, rat(c), values)


def integrate_cross_section(F: CrossSectionClass) -> Polynomial:
    """Integration over a cross-section; lands in the xi-annihilator subring.

    The volume at a cut edge is the pairing of the edge weight with xi (the
    multiplicity of the reduced point) times the restriction of the edge's
    Thom class there: the product of the projections of the other weights
    at the edge's source.  With this normalization the integral of the
    restriction of tau_p^+ tau_q^- across a unique-path edge is the local
    intersection number Theta_pq / alpha_e(xi).
    """
    polarization = F.polarization
    graph, xi = polarization.graph, polarization.xi

    def volume_factors(eid: int) -> Iterator[LinearForm]:
        edge = graph.edges[eid]
        others = (e for e in graph.out_edges(edge.source) if e != eid)
        return (rho_form(graph.weight(e), edge.weight, xi) for e in others)

    return _localization_sum(
        graph.dimension,
        (
            (F.values[eid], volume_factors(eid), polarization.pairings[eid])
            for eid in F.cut_edges()
        ),
        "cross-section integral did not reduce; class is outside the admitted image",
    )
