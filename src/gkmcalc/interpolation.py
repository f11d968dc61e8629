"""Lagrange interpolation and symbolic Vandermonde inversion.

The nodes are linear forms (in applications, edge weights rescaled by their
pairing with the polarizing vector), the prescribed values are polynomials,
and the interpolating coefficients are rational expressions whose
denominators are products of node differences.  The coefficients are genuine
polynomials exactly when the values satisfy the cocycle-style divisibility
condition between every pair of nodes.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import DimensionError
from .symbolic import LinearForm, Polynomial, RationalExpr


def _check_nodes(nodes: Sequence[LinearForm]) -> int:
    if not nodes:
        raise ValueError("need at least one node")
    dim = nodes[0].dim
    for node in nodes:
        if node.dim != dim:
            raise DimensionError("interpolation nodes of mixed dimension")
    for a, b in itertools.combinations(nodes, 2):
        if (a - b).is_zero:
            raise ValueError(f"repeated interpolation node {a}")
    return dim


def elementary_symmetric(
    nodes: Sequence[LinearForm], r: int, dim: int | None = None
) -> Polynomial:
    """The r-th elementary symmetric polynomial of the given forms."""
    if r < 0 or r > len(nodes):
        raise ValueError(f"elementary symmetric index {r} out of range 0..{len(nodes)}")
    if dim is None:
        if not nodes:
            raise ValueError("dimension needed for an empty node list")
        dim = nodes[0].dim
    total = Polynomial.zero(dim)
    for subset in itertools.combinations(nodes, r):
        total = total + Polynomial.product_of_forms(subset, dim)
    return total


def elementary_symmetric_excluding(nodes: Sequence[LinearForm], j: int, r: int) -> Polynomial:
    """sigma^j_r: the r-th elementary symmetric polynomial omitting node j."""
    rest = [node for i, node in enumerate(nodes) if i != j]
    return elementary_symmetric(rest, r, dim=nodes[j].dim)


def node_difference_factors(nodes: Sequence[LinearForm], j: int) -> list[LinearForm]:
    """The linear factors (x_j - x_l), l != j."""
    return [nodes[j] - nodes[l] for l in range(len(nodes)) if l != j]


def lagrange_interpolate(points: Sequence[tuple[LinearForm, Polynomial]]) -> list[RationalExpr]:
    """Coefficients g_1..g_n of the interpolating polynomial sum g_i x^{i-1}.

    g_i = sum_j b_ij f_j with b the :func:`vandermonde_inverse` of the nodes.
    Each g_i reduces to a polynomial iff x_i - x_j divides f_i - f_j for
    every pair of prescribed values.
    """
    inverse = vandermonde_inverse([node for node, _ in points])
    return [row[0] for row in matrix_product(inverse, [[value] for _, value in points])]


def interpolation_value(coefficients: Sequence[RationalExpr], node: LinearForm) -> RationalExpr:
    """Evaluate p(x) = sum g_i x^{i-1} at a linear form."""
    dim = node.dim
    total = RationalExpr.zero(dim)
    power = Polynomial.one(dim)
    for g in coefficients:
        total = total + g * power
        power = power * node
    return total


def vandermonde_matrix(nodes: Sequence[LinearForm]) -> list[list[Polynomial]]:
    """a_ij = x_i^{j-1} as polynomials."""
    dim = _check_nodes(nodes)
    n = len(nodes)
    rows = []
    for i in range(n):
        row = []
        power = Polynomial.one(dim)
        for _ in range(n):
            row.append(power)
            power = power * nodes[i]
        rows.append(row)
    return rows


def vandermonde_inverse(nodes: Sequence[LinearForm]) -> list[list[RationalExpr]]:
    """b_ij = (-1)^{n-i} sigma^j_{n-i} / prod_{l != j} (x_j - x_l)."""
    dim = _check_nodes(nodes)
    n = len(nodes)
    rows = []
    for i in range(1, n + 1):
        sign = 1 if (n - i) % 2 == 0 else -1
        row = []
        for j in range(n):
            numerator = elementary_symmetric_excluding(nodes, j, n - i) * sign
            row.append(RationalExpr.make(numerator, node_difference_factors(nodes, j)))
        rows.append(row)
    return rows


def vandermonde_inverse_powersum(nodes: Sequence[LinearForm]) -> list[list[RationalExpr]]:
    """Alternative inverse using full elementary symmetric functions.

    b_ij = sum_{r=0}^{n-i} (-1)^{n-i-r} sigma_{n-i-r} x_j^r / prod_{l != j}
    (x_j - x_l); must agree with :func:`vandermonde_inverse` identically.
    """
    dim = _check_nodes(nodes)
    n = len(nodes)
    sigmas = [elementary_symmetric(nodes, r) for r in range(n + 1)]
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(n):
            numerator = Polynomial.zero(dim)
            power = Polynomial.one(dim)
            for r in range(0, n - i + 1):
                sign = 1 if (n - i - r) % 2 == 0 else -1
                numerator = numerator + sigmas[n - i - r] * power * sign
                power = power * nodes[j]
            row.append(RationalExpr.make(numerator, node_difference_factors(nodes, j)))
        rows.append(row)
    return rows


def matrix_product(
    left: Sequence[Sequence[RationalExpr]], right: Sequence[Sequence]
) -> list[list[RationalExpr]]:
    """Product of matrices whose entries coerce into rational expressions."""
    n = len(left)
    inner = len(right)
    cols = len(right[0])
    out = []
    for i in range(n):
        row = []
        for k in range(cols):
            total = RationalExpr.zero(left[0][0].dim)
            for j in range(inner):
                total = total + left[i][j] * right[j][k]
            row.append(total)
        out.append(row)
    return out


def partition_of_unity_sum(nodes: Sequence[LinearForm]) -> RationalExpr:
    """sum_j prod_{l != j} (-x_l)/(x_j - x_l); identically 1."""
    dim = _check_nodes(nodes)
    n = len(nodes)
    total = RationalExpr.zero(dim)
    for j in range(n):
        numerator = Polynomial.product_of_forms(
            (-nodes[l] for l in range(n) if l != j), dim
        )
        total = total + RationalExpr.make(numerator, node_difference_factors(nodes, j))
    return total


def power_sum_over_differences(nodes: Sequence[LinearForm], k: int) -> RationalExpr:
    """sum_j x_j^{k-1} / prod_{l != j} (x_j - x_l); zero for k < n, one at k = n."""
    dim = _check_nodes(nodes)
    n = len(nodes)
    total = RationalExpr.zero(dim)
    for j in range(n):
        numerator = nodes[j].as_polynomial() ** (k - 1)
        total = total + RationalExpr.make(numerator, node_difference_factors(nodes, j))
    return total
