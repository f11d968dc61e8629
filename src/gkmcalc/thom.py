"""Thom classes, intersection numbers, pairings and structure constants.

Each route has one job.  Classes come from one engine, thom_class_inductive
(Newton interpolation through sigma_base + 1 descending edges of each
vertex, zero-valued neighbours first, exact division only); tau^-,
pairings, the Thom basis and expansions in it all use it.  Its step, the
flip-flop at one vertex, is _flip_flop, which cross-section transport
shares on every descending edge.
The path sums of thom_class_paths are its independent verifier: each
route's sums are checked against the engine's class of the same base at
every vertex, and the engine's class is returned, so every Thom class is
one object.  Structure constants c_pq^r are the localization integral of
tau_p^+ tau_q^+ tau_r^-, each class verified by its path sums.  A
calculator memoizes its values per instance (_memoized).

For a polarized GKM graph the Thom class of a vertex p evaluates at q to a
sum over ascending paths from p to q.  Each summand is a rational function
(quotient of a polynomial by a product of linear forms) but the sum itself
collapses to a polynomial.  Every path weight is a product of per-edge
factors along two independent routes,

  * the intersection-number form: (-1)^m nu_q (iota_{e_1}/ahat_m)
    prod_{k>=2} iota_{e_k}/(ahat_{k-1} - ahat_k), with
    ahat_k = alpha_{e_k}/alpha_{e_k}(xi), and
  * the transfer form Q(e_m) Q(gamma) rho_{e_1}(nu_p),

so the path sums are carried edge by edge (_carry, which also sweeps the
transfer matrices of crosssection), once along each route.  Each route
must equal the engine's polynomial values exactly, which checks that the
sums collapse and that the routes agree; a mismatch raises, as a bug trap.
Paths are enumerated only where a path is the object: path_weight and
path_sum; has_unique_path and the nearby-path configurations only count
and measure them, by one sweep (path_counts).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cohomology import CohomologyClass, cocycle_witness, integrate
from .errors import (
    GraphError,
    InternalConsistencyError,
    ReductionError,
    SpanError,
)
from .graph import Polarization
from .symbolic import (
    LinearForm,
    Polynomial,
    RationalExpr,
    format_rational,
    rho_form,
    rho_poly,
)

Path = tuple[int, ...]


@dataclass(frozen=True)
class EdgeIntersection:
    """A local intersection number iota_e with its globality flag.

    The value is global (equal to a cross-section integral, hence a
    polynomial) when the edge is the unique ascending path between its
    endpoints.
    """

    value: RationalExpr
    is_global: bool


def _memoized(method):
    """Memoize a method in its instance's one dict, _memo, keyed by method
    name and argument tuple.  The values live on the instance, not the
    class, and hold no link back to it, so a calculator and its values are
    freed as soon as the last reference to it goes.  A call that raises
    stores nothing."""
    name = method.__name__

    @functools.wraps(method)
    def memoized(self, *args):
        key = (name, args)
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = self._memo[key] = method(self, *args)
        return value

    return memoized


class ThomCalculator:
    """All path-sum computations for one polarized graph, memoized."""

    def __init__(self, polarization: Polarization):
        self.pol = polarization
        self.graph = polarization.graph
        self._memo: dict[tuple[str, tuple], object] = {}

    # -- basic data ------------------------------------------------------

    @_memoized
    def nu_factors(self, vertex: str) -> tuple[LinearForm, ...]:
        """Weights of the descending edges at a vertex."""
        return tuple(self.graph.weight(e) for e in self.pol.descending_out(vertex))

    @_memoized
    def nu_plus(self, vertex: str) -> Polynomial:
        """Leading value: the product of the descending weights."""
        return Polynomial.product_of_forms(self.nu_factors(vertex), self.graph.dimension)

    @_memoized
    def reversed_calculator(self) -> "ThomCalculator":
        # no link back: without reference cycles a calculator and its
        # memo are freed as soon as the last reference goes
        return ThomCalculator(self.pol.reversed())

    # -- ascending paths ---------------------------------------------------

    @_memoized
    def paths_from(self, start: str) -> dict[str, list[Path]]:
        """All ascending paths out of a vertex, grouped by endpoint.

        Exhaustive depth-first enumeration over the ascending orientation
        (a DAG, so paths never revisit a vertex) with an explicit stack, in
        preorder; the empty path at the start vertex is included.
        """
        result: dict[str, list[Path]] = {}
        stack: list[tuple[str, Path]] = [(start, ())]
        while stack:
            vertex, path = stack.pop()
            result.setdefault(vertex, []).append(path)
            # pushed in reverse so that edges are explored in their order
            for eid in reversed(self.pol.ascending_out(vertex)):
                stack.append((self.graph.edges[eid].target, path + (eid,)))
        return result

    def ascending_paths(self, p: str, q: str) -> list[Path]:
        return self.paths_from(p).get(q, [])

    @_memoized
    def path_counts(self, start: str) -> dict[str, tuple[int, int]]:
        """(number of ascending paths, length of the longest) from a vertex to
        each vertex it reaches, itself included as (1, 0).

        One sweep in level order: each vertex sums the counts and extends the
        longest lengths at the lower ends of its descending edges, so no
        path is enumerated.
        """
        edges, pol = self.graph.edges, self.pol
        counts = {start: (1, 0)}
        for vertex in pol.vertices_by_level():
            arriving = [
                counts[edges[e].target] for e in pol.descending_out(vertex) if edges[e].target in counts
            ]
            if arriving:
                counts[vertex] = (sum(n for n, _ in arriving), 1 + max(m for _, m in arriving))
        return counts

    def has_unique_path(self, eid: int) -> bool:
        """True when the edge is the only ascending path joining its endpoints."""
        edge = self.graph.edges[eid]
        return self.path_counts(edge.source)[edge.target][0] == 1

    # -- intersection numbers ----------------------------------------------

    @_memoized
    def theta(self, eid: int) -> RationalExpr:
        """The edge ratio Theta_pq in connection-cancelled form.

        With E_pq the descending edges at p whose connection image is not
        descending at q, and E_qp the descending edges at q (other than the
        reversal) whose image under the reverse connection is not descending
        at p, Theta = rho_e(prod E_pq) / rho_e(prod E_qp).  Orientation
        reversal leaves it unchanged.
        """
        if not self.pol.ascending(eid):
            return self.theta(self.graph.reverse(eid))
        graph, pol = self.graph, self.pol
        edge = graph.edges[eid]
        rev = edge.reverse_id
        p_desc = set(pol.descending_out(edge.source))
        q_desc = set(pol.descending_out(edge.target))
        numerator_edges = [
            e for e in p_desc if graph.theta(eid, e) not in q_desc
        ]
        denominator_edges = [
            e
            for e in q_desc
            if e != rev and graph.theta(rev, e) not in p_desc
        ]
        return self._rho_ratio(edge.weight, numerator_edges, denominator_edges)

    def theta_uncancelled(self, eid: int) -> RationalExpr:
        """The raw quotient over all descending edges, before cancellation."""
        graph, pol = self.graph, self.pol
        if not pol.ascending(eid):
            return self.theta_uncancelled(graph.reverse(eid))
        edge = graph.edges[eid]
        numerator_edges = list(pol.descending_out(edge.source))
        denominator_edges = [
            e for e in pol.descending_out(edge.target) if e != edge.reverse_id
        ]
        return self._rho_ratio(edge.weight, numerator_edges, denominator_edges)

    def _rho_ratio(
        self, weight: LinearForm, numerator_edges: Iterable[int], denominator_edges: Iterable[int]
    ) -> RationalExpr:
        xi = self.pol.xi
        return RationalExpr.of_forms(
            [rho_form(self.graph.weight(e), weight, xi) for e in numerator_edges],
            [rho_form(self.graph.weight(e), weight, xi) for e in denominator_edges],
            self.graph.dimension,
        )

    def iota(self, eid: int) -> EdgeIntersection:
        """Local intersection number Theta_pq / alpha_e(xi)."""
        value = self.theta(eid).div_scalar(self.pol.pairings[eid])
        return EdgeIntersection(value, self.has_unique_path(eid))

    # -- transfer weights -----------------------------------------------------

    @_memoized
    def q_edge(self, eid: int) -> RationalExpr:
        """Q(e): product of the other descending weights at the head of e,
        over its own projection along e."""
        return self._over_projections(eid, lambda w: w)

    @_memoized
    def q_pair(self, first: int, second: int) -> RationalExpr:
        """Q(e, e') for consecutive ascending edges meeting at a vertex."""
        graph = self.graph
        if graph.edges[second].source != graph.edges[first].target:
            raise GraphError("edges are not consecutive")
        weight = graph.weight(second)
        return self._over_projections(first, lambda w: rho_form(w, weight, self.pol.xi))

    def _over_projections(self, eid: int, project) -> RationalExpr:
        """prod project(w) / prod rho_e(w) over the descending weights w at
        the head of e other than its reversal."""
        graph = self.graph
        edge = graph.edges[eid]
        others = [
            graph.weight(e) for e in self.pol.descending_out(edge.target) if e != edge.reverse_id
        ]
        return RationalExpr.of_forms(
            map(project, others),
            [rho_form(w, edge.weight, self.pol.xi) for w in others],
            graph.dimension,
        )

    # -- path weights ------------------------------------------------------

    def _routes(self) -> tuple[tuple, tuple]:
        """(seed, step, close) of each route, with a path weight
        seed(e_1) step(e_1, e_2) ... step(e_{m-1}, e_m) close(e_m): -iota_e,
        -iota_e'/(ahat_e - ahat_e') and nu_q/ahat_e, whose minus signs make up
        (-1)^m, for the intersection-number form; rho_e(nu_p), Q(e, e') and
        Q(e) for the transfer form."""
        return (
            (self._minus_iota, self._iota_step, self._iota_close),
            (self._rho_seed, self.q_pair, self.q_edge),
        )

    @_memoized
    def _hat(self, eid: int) -> LinearForm:
        """The node ahat_e = alpha_e/alpha_e(xi)."""
        return self.graph.weight(eid).scale(1 / self.pol.pairings[eid])

    @_memoized
    def _gap(self, first: int, second: int) -> LinearForm:
        return self._hat(first) - self._hat(second)

    @_memoized
    def _minus_iota(self, eid: int) -> RationalExpr:
        """-iota_e read from theta and the pairing, without iota's path count."""
        return -self.theta(eid).div_scalar(self.pol.pairings[eid])

    @_memoized
    def _iota_step(self, first: int, second: int) -> RationalExpr:
        return self._minus_iota(second).div_form(self._gap(first, second))

    @_memoized
    def _iota_close(self, eid: int) -> RationalExpr:
        return RationalExpr.of_forms(
            self.nu_factors(self.graph.edges[eid].target), [self._hat(eid)], self.graph.dimension
        )

    @_memoized
    def _rho_seed(self, eid: int) -> RationalExpr:
        edge = self.graph.edges[eid]
        return self._rho_ratio(edge.weight, self.pol.descending_out(edge.source), ())

    def path_weight(self, path: Sequence[int]) -> RationalExpr:
        """The contribution E(gamma) of a nonempty ascending path.

        Both routes' factors are multiplied along the path and compared;
        they are distinct rearrangements of the same product, so any
        disagreement means a bug in one of them.
        """
        path = tuple(path)
        if not path:
            raise ValueError("path weight of the empty path is the leading value nu_p")
        for previous, current in zip(path, path[1:]):
            if self.graph.edges[previous].target != self.graph.edges[current].source:
                raise GraphError("edges do not form a path")
        for eid in path:
            if not self.pol.ascending(eid):
                raise GraphError(f"edge {self.graph.edges[eid].key()} is not ascending")
        weights = []
        for seed, step, close in self._routes():
            total = seed(path[0])
            for previous, current in zip(path, path[1:]):
                total = total * step(previous, current)
            weights.append(total * close(path[-1]))
        by_intersections, by_transfer = weights
        if by_intersections != by_transfer:
            raise InternalConsistencyError(
                f"path weight routes disagree on {[self.graph.edges[e].key() for e in path]}: "
                f"{by_intersections} vs {by_transfer}"
            )
        return by_intersections

    def path_sum(self, start: str, end: str) -> RationalExpr:
        """Sum of E(gamma) over ascending paths start -> end.

        The empty path at the start vertex contributes the leading value, so
        path_sum(p, p) = nu_p; unreachable vertices give zero.
        """
        total = RationalExpr.zero(self.graph.dimension)
        for path in self.ascending_paths(start, end):
            if path:
                total = total + self.path_weight(path)
            else:
                total = total + self.nu_plus(start)
        return total

    # -- Thom classes ----------------------------------------------------------

    @_memoized
    def thom_class_paths(self, base: str) -> CohomologyClass:
        """Thom class by the path-sum formula: the verifier of
        thom_class_inductive, whose class it returns.

        The sums are carried from the base once along each route, and each
        route must equal the engine's class at every vertex: the closed sum
        above the base, nu_base at the base (no ascending path returns to
        it) and zero elsewhere.  The engine's class is a polynomial cocycle,
        homogeneous of degree sigma_base, so this also checks that the sums
        reduce, are homogeneous and agree between the routes.
        """
        graph, pol = self.graph, self.pol
        engine = self.thom_class_inductive(base)
        above = [v for v in pol.vertices_by_level() if pol.level(v) > pol.level(base)]
        zero = Polynomial.zero(graph.dimension)
        for route, (seed, step, close) in zip(("intersection", "transfer"), self._routes()):
            closed = _carry(pol, {e: seed(e) for e in pol.ascending_out(base)}, above, step, close)[1]
            closed[base] = self.nu_plus(base)
            for vertex in pol.vertices_by_level():
                value = closed.get(vertex, zero)
                if value != engine.values[vertex]:
                    raise InternalConsistencyError(
                        f"{route} path sum and engine Thom classes of {graph.label(base)} "
                        f"differ at {graph.label(vertex)} for "
                        f"xi=({', '.join(map(format_rational, pol.xi))}): "
                        f"{value.render()} vs {engine.values[vertex].render()}"
                    )
        return engine

    @_memoized
    def thom_class_inductive(self, base: str) -> CohomologyClass:
        """Thom class by Newton interpolation over descending edges, lowest
        level first; vertices not reachable from the base get zero.

        A reached vertex's value psi is homogeneous of degree
        d = sigma_base, so t -> psi(x - t xi) has degree at most d, and the
        GKM weights at a vertex are pairwise independent, so its nodes
        ahat_j are distinct: any d + 1 descending edges fix psi.  The first
        d + 1 are taken after a stable sort that puts edges whose lower end
        is zero first, the cheapest nodes.  The result is checked to be a
        cocycle along every edge, the skipped ones included, and
        homogeneous of degree sigma_base.
        """
        graph, pol = self.graph, self.pol
        zero = Polynomial.zero(graph.dimension)
        values = {v: zero for v in graph.vertices}
        values[base] = self.nu_plus(base)
        reached = {base}
        base_level = pol.level(base)
        nodes = pol.sigma[base] + 1
        for vertex in pol.vertices_by_level():
            if pol.level(vertex) <= base_level:
                continue
            descending = pol.descending_out(vertex)
            if any(graph.edges[e].target in reached for e in descending):
                reached.add(vertex)
                chosen = sorted(
                    descending, key=lambda e: not values[graph.edges[e].target].is_zero
                )[:nodes]
                # rho_e is a ring homomorphism: a zero lower value maps to zero
                lower = [(e, values[graph.edges[e].target]) for e in chosen]
                incoming = [
                    value if value.is_zero else rho_poly(value, graph.weight(e), pol.xi)
                    for e, value in lower
                ]
                values[vertex] = _flip_flop(self, vertex, chosen, incoming)
        witness = cocycle_witness(graph, values)
        if witness is not None:
            raise InternalConsistencyError(
                f"Thom class of {graph.label(base)} is not a cocycle: {witness}"
            )
        return CohomologyClass(graph, values, degree=pol.sigma[base])

    def thom_class_minus(self, base: str) -> CohomologyClass:
        """Descending Thom class: the ascending class for the reversed polarization."""
        return self.reversed_calculator().thom_class_inductive(base)

    # -- pairings and structure constants ------------------------------------

    def pairing(self, p: str, q: str) -> Polynomial:
        """Localization integral of tau_p^+ tau_q^-; the identity matrix when
        the Morse function is self-indexing."""
        return integrate(self.thom_class_inductive(p) * self.thom_class_minus(q))

    def structure_constant(self, p: str, q: str, r: str) -> Polynomial:
        """c_pqr as the localization integral of tau_p^+ tau_q^+ tau_r^-: the
        engine's classes, each returned by thom_class_paths once both of its
        path-sum routes are checked against it."""
        rev = self.reversed_calculator()
        return integrate(
            self.thom_class_paths(p) * self.thom_class_paths(q) * rev.thom_class_paths(r)
        )

    def expand_in_thom_basis(self, f: CohomologyClass) -> dict[str, Polynomial]:
        """Coefficients c_r with f = sum c_r tau_r^+, by triangular peeling.

        Vertices are processed in increasing Morse order; at each vertex the
        residual value must be exactly divisible by the leading value, else
        the class is not in the span and the offending vertex is reported.
        """
        if f.graph is not self.graph:
            raise GraphError("class lives on a different graph")
        order = self.pol.vertices_by_level()
        coefficients: dict[str, Polynomial] = {}
        residual = {v: f.values[v] for v in self.graph.vertices}
        for vertex in order:
            value = residual[vertex]
            if value.is_zero:
                coefficients[vertex] = value
                continue
            quotient = value
            for factor in self.nu_factors(vertex):
                quotient = quotient.divide_linear(factor)
                if quotient is None:
                    raise SpanError(
                        f"residual at {self.graph.label(vertex)} is not divisible by the "
                        "leading value; class is outside the Thom span"
                    )
            coefficients[vertex] = quotient
            if not quotient.is_zero:
                for w, value in self.thom_class_inductive(vertex).values.items():
                    residual[w] = residual[w] - quotient * value
        for vertex in order:
            if not residual[vertex].is_zero:
                raise SpanError(f"expansion does not reconstruct the class at {vertex}")
        return coefficients

    def multiplication_constants(self, p: str, q: str) -> dict[str, Polynomial]:
        """Coefficients c^r_pq of tau_p^+ tau_q^+ in the Thom basis."""
        return self.expand_in_thom_basis(
            self.thom_class_inductive(p) * self.thom_class_inductive(q)
        )


def _carry(
    pol: Polarization, carried: dict[int, RationalExpr], vertices: Sequence[str], step, close=None
) -> tuple[dict[int, RationalExpr], dict[str, RationalExpr]]:
    """Sum a product of edge factors over ascending paths, edge by edge.

    `carried` maps ascending edges to sums over the paths ending in them.
    Each vertex, crossed in level order, takes the sums on its arriving
    edges e and gives each leaving edge e' the sum of carried[e] step(e, e');
    with `close`, the vertex also gets the closed sum of carried[e] close(e).
    Zero sums are not carried.  Returns the sums left on edges leaving the
    crossed vertices and the closed sum at every crossed vertex.
    """
    zero = RationalExpr.zero(pol.graph.dimension)
    carried = dict(carried)
    closed: dict[str, RationalExpr] = {}
    for vertex in vertices:
        arriving = [
            (e, carried.pop(e))
            for e in map(pol.graph.reverse, pol.descending_out(vertex))
            if e in carried
        ]
        if close is not None:
            closed[vertex] = sum((value * close(e) for e, value in arriving), zero)
        for up in pol.ascending_out(vertex):
            total = sum((value * step(e, up) for e, value in arriving), zero)
            if not total.is_zero:
                carried[up] = total
    return carried, closed


def _flip_flop(
    calc: ThomCalculator, vertex: str, descending: Sequence[int], values: Sequence[Polynomial]
) -> Polynomial:
    """The flip-flop psi at a vertex: rho_j(psi) = values[j] on the given
    descending edges j, as the Newton form through the nodes
    ahat_j = alpha_j/alpha_j(xi), evaluated at zero.  Its divided differences
    are exact quotients by differences of nodes, so no rational expression
    appears; an inexact one raises ReductionError naming both edges.  A zero
    numerator stays zero, undivided.  The nodes and their differences come
    from the calculator, once per edge and pair of edges."""
    graph = calc.graph
    nodes = [calc._hat(e) for e in descending]
    table = list(values)
    # after round i, table[j] is the divided difference over nodes j-i..j
    for i in range(1, len(nodes)):
        for j in range(len(nodes) - 1, i - 1, -1):
            difference = table[j] - table[j - 1]
            if not difference.is_zero:
                difference = difference.divide_linear(calc._gap(descending[j], descending[j - i]))
                if difference is None:
                    raise ReductionError(
                        f"divided difference at {graph.label(vertex)} along "
                        f"{graph.edges[descending[j - i]].key()} and "
                        f"{graph.edges[descending[j]].key()} is not exact"
                    )
            table[j] = difference
    value = table[-1]
    for i in range(len(nodes) - 2, -1, -1):
        value = table[i] - value * nodes[i]
    return value


# ---------------------------------------------------------------------------
# nearby-path cancellation configurations


@dataclass(frozen=True)
class TriangleConfiguration:
    """A triangle p -> r -> q with diagonal p -> q inside a larger graph."""

    p: str
    r: str
    q: str
    diagonal: int  # edge p -> q
    lower: int  # edge p -> r
    upper: int  # edge r -> q


def nearby_path_configurations(calc: ThomCalculator) -> list[TriangleConfiguration]:
    """Triangles where the index jumps by two and the two-step path is longest.

    These are the configurations in which the weights of the one-edge path
    and the two-edge path cancel jointly: their sum is nu_q divided by the
    product of the diagonal weight and the upper weight.  The compatibility
    of the connection forces the diagonal weight to be the sum of the two
    side weights.
    """
    graph, pol = calc.graph, calc.pol
    configurations = []
    for diagonal in (e.eid for e in graph.edges if pol.ascending(e.eid)):
        p = graph.edges[diagonal].source
        q = graph.edges[diagonal].target
        if pol.sigma[q] != pol.sigma[p] + 2:
            continue
        if calc.path_counts(p)[q][1] != 2:
            continue
        for lower in pol.ascending_out(p):
            r = graph.edges[lower].target
            upper = graph.edge_between(r, q)
            if upper is None or not pol.ascending(upper):
                continue
            # the triangle must be closed under the connection
            if graph.theta(diagonal, lower) != graph.reverse(upper):
                continue
            if graph.theta(lower, diagonal) != upper:
                continue
            configurations.append(TriangleConfiguration(p, r, q, diagonal, lower, upper))
    return configurations


def nearby_path_identity(calc: ThomCalculator, config: TriangleConfiguration) -> bool:
    """Exact check of E(diagonal) + E(two-step) = nu_q/(alpha_e alpha_e'')."""
    graph = calc.graph
    weight_sum_ok = (
        graph.weight(config.diagonal)
        - graph.weight(config.lower)
        - graph.weight(config.upper)
    ).is_zero
    if not weight_sum_ok:
        return False
    left = calc.path_weight((config.diagonal,)) + calc.path_weight(
        (config.lower, config.upper)
    )
    right = RationalExpr.make(
        calc.nu_plus(config.q),
        [graph.weight(config.diagonal), graph.weight(config.upper)],
    )
    return left == right
