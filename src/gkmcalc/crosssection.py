"""Cross-sections of the Morse function: regular levels, the edges they
cut, the restriction of a class to one, its transport to a higher level,
and transfer ("flip-flop") matrices between levels with the Markov property.

A regular level c of the Morse function cuts a set of ascending edges
(cut_edge_ids); a cross-section class assigns to each cut edge a polynomial
in the xi-annihilator subring, and kirwan restricts a class on the
vertices to one by projecting along each cut edge.  Crossing one critical
vertex transfers such a class by interpolating its values on the
disappearing (descending) edges and re-evaluating on the created
(ascending) ones; the matrix of this map is the identity on persisting
edges and, on the new block,

    T(j, a) = prod_{k != j} (ahat_k - ahat_a) / (ahat_k - ahat_j)

over the descending edges e_k at the crossed vertex, with nodes
ahat = alpha/alpha(xi): the Lagrange basis at the nodes, and the transfer
weight Q(e_j^{-1}, e_a) of ThomCalculator.q_pair.  Columns sum to one
exactly.  A matrix between any two regular levels is built by thom._carry,
the edge sweep that also sums the path classes: each row T(v, .) starts as
1 on its source cut edge v and is carried up one crossed vertex at a time
through Q.  compose_transfer checks the result entry by entry against the
ascending-path weighted sums with weights Q(gamma), over the paths that
ThomCalculator.paths_from enumerates below the upper level, the package's
one path enumerator; a cut edge of both levels is its own path, T(v, v) = 1.

Transporting one class needs no matrix: it runs on the Thom-class engine's
flip-flop step, which interpolates the values on the descending edges of
each crossed vertex by exact Newton divided differences and evaluates the
interpolant psi on the ascending ones.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cohomology import CohomologyClass
from .errors import CocycleError, GraphError, InternalConsistencyError, PolarizationError
from .graph import Polarization
from .symbolic import Polynomial, RationalExpr, RationalLike, rat, rho_poly
from .thom import ThomCalculator, _carry, _flip_flop


@dataclass(frozen=True)
class CrossSectionClass:
    """Values indexed by the ascending edges cut by a regular level.

    Every value lies in the annihilator subring of xi (its directional
    derivative along xi vanishes).
    """

    polarization: Polarization
    level: Fraction
    values: Mapping[int, Polynomial]

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


def chamber_levels(polarization: Polarization) -> list[Fraction]:
    """Canonical regular values: midpoints between consecutive critical
    levels, plus one value below the minimum and one above the maximum."""
    critical = polarization.critical_levels()
    if not critical:
        raise PolarizationError("the graph has no vertices, so it has no critical level")
    levels = [critical[0] - 1]
    for low, high in zip(critical, critical[1:]):
        levels.append((low + high) / 2)
    levels.append(critical[-1] + 1)
    return levels


def crossed_vertices(polarization: Polarization, c: Fraction, c_prime: Fraction) -> list[str]:
    return [
        v
        for v in polarization.vertices_by_level()
        if c < polarization.level(v) < c_prime
    ]


@dataclass(frozen=True)
class TransferMatrix:
    """Sparse matrix of a transfer map from level low up to level high.

    source and target are the cut edges of the two levels (cut_edge_ids);
    entries are indexed (source cut edge, target cut edge) and hold the
    nonzero ones only.  Application is f'(w) = sum_v T(v, w) f(v), so the
    Markov property is that every column sums to one.
    """

    polarization: Polarization
    low: Fraction
    high: Fraction
    source: tuple[int, ...]
    target: tuple[int, ...]
    entries: dict[tuple[int, int], RationalExpr]

    def entry(self, v: int, w: int) -> RationalExpr:
        value = self.entries.get((v, w))
        if value is None:
            return RationalExpr.zero(self.polarization.graph.dimension)
        return value

    def is_markov(self) -> bool:
        dim = self.polarization.graph.dimension
        one, zero = RationalExpr.one(dim), RationalExpr.zero(dim)
        return all(sum((self.entry(v, w) for v in self.source), zero) == one for w in self.target)


def _sweep(
    polarization: Polarization, c: RationalLike, c_prime: RationalLike
) -> tuple[Fraction, Fraction, list[str]]:
    """The levels and crossed vertices of a sweep from c up to c', both regular."""
    low, high = rat(c), rat(c_prime)
    if low >= high:
        raise PolarizationError("need c < c'")
    for value in (low, high):
        if not polarization.is_regular(value):
            raise PolarizationError(f"{value} is a critical value")
    crossed = crossed_vertices(polarization, low, high)
    if any(polarization.sigma[v] == 0 for v in crossed):
        raise PolarizationError(
            "sweep crosses an index-zero vertex; transfer is only defined above "
            "the minimum (new classes are seeded, not transferred)"
        )
    return low, high, crossed


def single_step_transfer(
    polarization: Polarization, c: RationalLike, c_prime: RationalLike
) -> TransferMatrix:
    """Transfer across exactly one critical vertex.

    Persisting edges map by the identity.  When the crossed vertex has
    index zero there is no descending block and the created edges receive
    no entries (the seed of a new class is supplied externally); otherwise
    the created block is the quotient above, built by q_pair, and its
    columns sum to one exactly.
    """
    low, high = rat(c), rat(c_prime)
    if low >= high:
        raise PolarizationError("need c < c'")
    crossed = crossed_vertices(polarization, low, high)
    if len(crossed) != 1:
        raise PolarizationError(
            f"expected exactly one critical vertex in ({low}, {high}), found {crossed}"
        )
    source = cut_edge_ids(polarization, low)
    entries = _transfer(ThomCalculator(polarization), source, crossed)
    return TransferMatrix(polarization, low, high, source, cut_edge_ids(polarization, high), entries)


def _transfer(
    calc: ThomCalculator, source: Sequence[int], crossed: Sequence[str]
) -> dict[tuple[int, int], RationalExpr]:
    """The nonzero transfer entries from the cut edges `source`, crossing
    `crossed` in increasing order: row T(v, .) is the unit weight on the
    source cut edge v carried up through Q."""
    pol = calc.pol
    one = RationalExpr.one(pol.graph.dimension)
    entries = {}
    for v in source:
        row, _ = _carry(pol, {v: one}, crossed, calc.q_pair)
        entries.update(((v, w), value) for w, value in row.items())
    return entries


def _transfer_by_paths(calc: ThomCalculator, matrix: TransferMatrix) -> dict[tuple[int, int], RationalExpr]:
    """Entries as ascending-path sums T(v, w) = sum_gamma Q(gamma).

    The paths are v gamma' w, with gamma' an ascending path (from
    calc.paths_from, bounded by the upper level) from the head of v to the
    tail of w, so every vertex it switches at lies strictly between the two
    levels; Q(gamma) multiplies the transfer weights of consecutive edge
    pairs.  A cut edge of both levels is the one-edge path, T(v, v) = 1.
    """
    graph, high = calc.graph, matrix.high
    zero = RationalExpr.zero(graph.dimension)
    entries: dict[tuple[int, int], RationalExpr] = {}
    for v in matrix.source:
        head = graph.edges[v].target
        if calc.pol.level(head) > high:
            entries[(v, v)] = RationalExpr.one(graph.dimension)
            continue
        paths = calc.paths_from(head, high)
        for w in matrix.target:
            for middle in paths.get(graph.edges[w].source, ()):
                gamma = (v, *middle, w)
                weight = functools.reduce(operator.mul, map(calc.q_pair, gamma, gamma[1:]))
                entries[(v, w)] = entries.get((v, w), zero) + weight
    return entries


def compose_transfer(
    polarization: Polarization, c: RationalLike, c_prime: RationalLike
) -> TransferMatrix:
    """Transfer between arbitrary regular values c < c', one vertex at a time.

    Every entry is compared with the ascending-path weighted sum; the two
    must agree exactly.  The paths of that check are counted first, by
    path_counts from the heads of the source cut edges (a head at or above
    the upper level reaches no vertex below it), and more than
    thom.PATH_BUDGET of them raise PathBudgetError before any work.
    """
    low, high, crossed = _sweep(polarization, c, c_prime)
    calc = ThomCalculator(polarization)
    source = cut_edge_ids(polarization, low)
    heads = {calc.graph.edges[v].target for v in source}
    calc.check_path_budget("the transfer check", heads, lambda x: polarization.level(x) < high)
    entries = _transfer(calc, source, crossed)
    matrix = TransferMatrix(polarization, low, high, source, cut_edge_ids(polarization, high), entries)
    _check_against_paths(calc, matrix)
    return matrix


def _check_against_paths(calc: ThomCalculator, matrix: TransferMatrix) -> None:
    expected = _transfer_by_paths(calc, matrix)
    keys = set(expected) | set(matrix.entries)
    graph = calc.graph
    zero = RationalExpr.zero(graph.dimension)
    for key in keys:
        left = matrix.entries.get(key, zero)
        right = expected.get(key, zero)
        if left != right:
            v, w = key
            raise InternalConsistencyError(
                f"transfer entry ({graph.edges[v].key()}, {graph.edges[w].key()}) "
                f"disagrees with the path sum: {left.render()} vs {right.render()}"
            )


def transport_class(F: CrossSectionClass, c_prime: RationalLike) -> CrossSectionClass:
    """Move a cross-section class to a higher regular level."""
    return transport_with_interpolants(F, c_prime)[0]


def transport_with_interpolants(
    F: CrossSectionClass, c_prime: RationalLike
) -> tuple[CrossSectionClass, dict[str, Polynomial]]:
    """Transport one vertex at a time, returning the flip-flop polynomial at
    each crossed vertex and checking it interpolates the incoming values.

    The polynomial psi at a crossed vertex satisfies rho_{e_j}(psi) = f(v_j)
    for every descending edge e_j, and the outgoing values are
    rho_{e_a}(psi).  The flip-flops share one dict of quotients, so each
    (difference, gap) is divided once per transport.
    """
    polarization = F.polarization
    graph = polarization.graph
    xi = polarization.xi
    low, high, crossed = _sweep(polarization, F.level, c_prime)
    if sorted(F.values) != list(cut_edge_ids(polarization, low)):
        raise GraphError("class does not live on the source cross-section")
    values = dict(F.values)
    interpolants: dict[str, Polynomial] = {}
    calc = ThomCalculator(polarization)
    quotients: dict = {}
    for vertex in crossed:
        descending = polarization.descending_out(vertex)
        incoming = [values.pop(graph.reverse(e)) for e in descending]
        psi = _flip_flop(calc, vertex, descending, incoming, quotients)
        for down, value in zip(descending, incoming):
            if rho_poly(psi, graph.weight(down), xi) != value:
                raise InternalConsistencyError(
                    f"interpolant at {graph.label(vertex)} misses the value on "
                    f"{graph.edges[graph.reverse(down)].key()}"
                )
        for up in polarization.ascending_out(vertex):
            values[up] = rho_poly(psi, graph.weight(up), xi)
        interpolants[vertex] = psi
    return CrossSectionClass(polarization, high, values), interpolants
