"""Cross-section combinatorics: cut-edge sets, transfer ("flip-flop")
matrices between regular levels, and the Markov property.

A regular level c of the Morse function cuts a set of ascending edges; a
cross-section class assigns to each cut edge a polynomial in the
xi-annihilator subring.  Crossing one critical vertex transfers such a
class by interpolating its values on the disappearing (descending) edges
and re-evaluating on the created (ascending) ones; the matrix of this map
is the identity on persisting edges and, on the new block,

    T(j, a) = rho_{e_a}(prod_{k != j} alpha_{e_k})
            / rho_{e_j}(prod_{k != j} alpha_{e_k})

over the descending edges e_k at the crossed vertex, which is the transfer
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

from .errors import GraphError, InternalConsistencyError, PolarizationError
from .cohomology import CrossSectionClass, cut_edge_ids
from .graph import Polarization
from .symbolic import Polynomial, RationalExpr, RationalLike, rat, rho_poly
from .thom import ThomCalculator, _carry, _flip_flop


@dataclass(frozen=True)
class CrossSection:
    """The set of ascending edges cut by a regular level."""

    polarization: Polarization
    level: Fraction
    cut: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.cut)


def cross_section(polarization: Polarization, c: RationalLike) -> CrossSection:
    level = rat(c)
    return CrossSection(polarization, level, cut_edge_ids(polarization, level))


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


class TransferMatrix:
    """Sparse matrix of a transfer map between two cross-sections.

    Entries are indexed (source cut edge, target cut edge); application is
    f'(w) = sum_v T(v, w) f(v), so the Markov property is that every column
    sums to one.
    """

    def __init__(
        self,
        source: CrossSection,
        target: CrossSection,
        entries: Mapping[tuple[int, int], RationalExpr],
    ):
        self.source = source
        self.target = target
        self.entries = dict(entries)

    def entry(self, v: int, w: int) -> RationalExpr:
        value = self.entries.get((v, w))
        if value is None:
            return RationalExpr.zero(self.source.polarization.graph.dimension)
        return value

    def column_sum(self, w: int) -> RationalExpr:
        dim = self.source.polarization.graph.dimension
        total = RationalExpr.zero(dim)
        for v in self.source.cut:
            total = total + self.entry(v, w)
        return total

    def is_markov(self) -> bool:
        one = RationalExpr.one(self.source.polarization.graph.dimension)
        return all(self.column_sum(w) == one for w in self.target.cut)


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
    return _transfer(ThomCalculator(polarization), low, high, crossed)


def _transfer(
    calc: ThomCalculator, low: Fraction, high: Fraction, crossed: Sequence[str]
) -> TransferMatrix:
    """The transfer matrix from level low to level high, crossing `crossed`
    in increasing order: row T(v, .) is the unit weight on the source cut
    edge v carried up through Q."""
    pol = calc.pol
    source = cross_section(pol, low)
    one = RationalExpr.one(pol.graph.dimension)
    entries = {}
    for v in source.cut:
        row, _ = _carry(pol, {v: one}, crossed, calc.q_pair)
        entries.update(((v, w), value) for w, value in row.items())
    return TransferMatrix(source, cross_section(pol, high), entries)


def _transfer_by_paths(
    calc: ThomCalculator, source: CrossSection, target: CrossSection
) -> dict[tuple[int, int], RationalExpr]:
    """Entries as ascending-path sums T(v, w) = sum_gamma Q(gamma).

    The paths are v gamma' w, with gamma' an ascending path (from
    calc.paths_from, bounded by the upper level) from the head of v to the
    tail of w, so every vertex it switches at lies strictly between the two
    levels; Q(gamma) multiplies the transfer weights of consecutive edge
    pairs.  A cut edge of both levels is the one-edge path, T(v, v) = 1.
    """
    graph, high = calc.graph, target.level
    zero = RationalExpr.zero(graph.dimension)
    entries: dict[tuple[int, int], RationalExpr] = {}
    for v in source.cut:
        head = graph.edges[v].target
        if calc.pol.level(head) > high:
            entries[(v, v)] = RationalExpr.one(graph.dimension)
            continue
        paths = calc.paths_from(head, high)
        for w in target.cut:
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
    heads = {calc.graph.edges[v].target for v in cross_section(polarization, low).cut}
    calc.check_path_budget("the transfer check", heads, lambda x: polarization.level(x) < high)
    matrix = _transfer(calc, low, high, crossed)
    _check_against_paths(calc, matrix)
    return matrix


def _check_against_paths(calc: ThomCalculator, matrix: TransferMatrix) -> None:
    expected = _transfer_by_paths(calc, matrix.source, matrix.target)
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
    rho_{e_a}(psi).
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
    for vertex in crossed:
        descending = polarization.descending_out(vertex)
        incoming = [values.pop(graph.reverse(e)) for e in descending]
        psi = _flip_flop(calc, vertex, descending, incoming)
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
