import random
from fractions import Fraction

import pytest

from gkmcalc.symbolic import LinearForm, Polynomial, RationalExpr
from oracles import (
    elementary_symmetric,
    elementary_symmetric_excluding,
    evaluate,
    interpolation_value,
    lagrange_interpolate,
    matrix_product,
    partition_of_unity_sum,
    power_sum_over_differences,
    row_reduce,
    vandermonde_inverse,
    vandermonde_inverse_powersum,
    vandermonde_matrix,
)


def variable_nodes(n):
    return [LinearForm.basis(i, n) for i in range(n)]


def random_plane_nodes(rng, n):
    """Distinct random rational forms in two coordinates."""
    nodes = []
    seen = set()
    while len(nodes) < n:
        coeffs = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        if coeffs in seen or coeffs == (0, 0):
            continue
        seen.add(coeffs)
        nodes.append(LinearForm(coeffs))
    # differences must be nonzero, guaranteed by distinctness of coefficient pairs
    return nodes


def solve_rational_system(matrix, rhs):
    """Gaussian elimination over Q; independent of the symbolic machinery.
    The matrix is invertible, so the reduced rows are [I | solution]."""
    return [row[-1] for row in row_reduce(row + [value] for row, value in zip(matrix, rhs))]


class TestElementarySymmetric:
    def test_r_zero(self):
        nodes = variable_nodes(3)
        assert elementary_symmetric(nodes, 0) == Polynomial.one(3)

    def test_r_full(self):
        nodes = variable_nodes(3)
        product = Polynomial.product_of_forms(nodes, 3)
        assert elementary_symmetric(nodes, 3) == product

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric(variable_nodes(2), 3)

    def test_excluded_identity_by_substitution(self):
        # sigma^j_k = sum_r (-1)^r sigma_{k-r} x_j^r at n=3, k=2, j=0,
        # checked at twenty random rational points
        nodes = variable_nodes(3)
        lhs = elementary_symmetric_excluding(nodes, 0, 2)
        rhs = Polynomial.zero(3)
        for r in range(0, 3):
            sign = 1 if r % 2 == 0 else -1
            rhs = rhs + elementary_symmetric(nodes, 2 - r) * (nodes[0].as_polynomial() ** r) * sign
        rng = random.Random(7)
        for _ in range(20):
            point = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(3)]
            assert evaluate(lhs, point) == evaluate(rhs, point)
        assert lhs == rhs


class TestLagrange:
    def test_single_point_constant(self):
        node = LinearForm.basis(0, 2)
        value = (LinearForm.basis(0, 2) + LinearForm.basis(1, 2)).as_polynomial()
        coefficients = lagrange_interpolate([(node, value)])
        assert len(coefficients) == 1
        assert coefficients[0].to_polynomial() == value

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 1), (3, 2), (4, 2)])
    def test_monomial_recovery(self, n, k):
        # interpolating f_i = x_i^k with k < n recovers the k-th coefficient
        nodes = variable_nodes(n)
        points = [(node, node.as_polynomial() ** k) for node in nodes]
        coefficients = lagrange_interpolate(points)
        for i, g in enumerate(coefficients):
            expected = Polynomial.one(n) if i == k else Polynomial.zero(n)
            assert g.is_polynomial and g.to_polynomial() == expected

    def test_repeated_nodes_rejected(self):
        node = LinearForm.basis(0, 2)
        with pytest.raises(ValueError):
            lagrange_interpolate([(node, Polynomial.one(2)), (node, Polynomial.zero(2))])

    def test_cocycle_values_give_polynomials(self):
        # values from a cohomology class on the complete graph: f_i = x_i^2 + x_i
        # satisfies the pairwise divisibility condition, so the g_i are
        # polynomials; their correctness is checked against an independent
        # numeric solve of the Vandermonde system
        n = 4
        nodes = variable_nodes(n)
        points = [(node, node.as_polynomial() ** 2 + node.as_polynomial()) for node in nodes]
        coefficients = lagrange_interpolate(points)
        for g in coefficients:
            assert g.is_polynomial
        rng = random.Random(11)
        for _ in range(5):
            sample = [Fraction(rng.randint(-15, 15), rng.randint(1, 4)) for _ in range(n)]
            node_values = [node.pair(sample) for node in nodes]
            if len(set(node_values)) < n:
                continue
            matrix = [[value ** j for j in range(n)] for value in node_values]
            rhs = [value ** 2 + value for value in node_values]
            numeric = solve_rational_system(matrix, rhs)
            symbolic = [evaluate(g.to_polynomial(), sample) for g in coefficients]
            assert numeric == symbolic

    def test_interpolation_reproduces_values(self):
        rng = random.Random(3)
        for n in range(1, 7):
            nodes = random_plane_nodes(rng, n)
            points = [
                (node, (node.as_polynomial() ** 2) * Fraction(rng.randint(1, 4)))
                for node in nodes
            ]
            coefficients = lagrange_interpolate(points)
            for node, value in points:
                assert interpolation_value(coefficients, node) == RationalExpr(value)


class TestVandermonde:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_inverse_times_matrix_symbolic(self, n):
        nodes = variable_nodes(n)
        inverse = vandermonde_inverse(nodes)
        matrix = vandermonde_matrix(nodes)
        product = matrix_product(inverse, matrix)
        for i in range(n):
            for j in range(n):
                expected = RationalExpr.one(n) if i == j else RationalExpr.zero(n)
                assert product[i][j] == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inverse_times_matrix_random_nodes(self, n):
        rng = random.Random(n)
        nodes = random_plane_nodes(rng, n)
        inverse = vandermonde_inverse(nodes)
        matrix = vandermonde_matrix(nodes)
        product = matrix_product(inverse, matrix)
        for i in range(n):
            for j in range(n):
                expected = RationalExpr.one(2) if i == j else RationalExpr.zero(2)
                assert product[i][j] == expected

    def test_two_by_two_entries(self):
        nodes = variable_nodes(2)
        x1, x2 = nodes
        inverse = vandermonde_inverse(nodes)
        assert inverse[1][0] == RationalExpr.make(Polynomial.one(2), [x1 - x2])
        assert inverse[1][1] == RationalExpr.make(Polynomial.one(2), [x2 - x1])

    @pytest.mark.parametrize("n", range(2, 5))
    def test_first_and_last_rows(self, n):
        # bottom row: 1/prod(x_j - x_l); top row: prod(-x_l)/(x_j - x_l)
        nodes = variable_nodes(n)
        inverse = vandermonde_inverse(nodes)
        for j in range(n):
            factors = [nodes[j] - nodes[l] for l in range(n) if l != j]
            bottom = RationalExpr.make(Polynomial.one(n), factors)
            assert inverse[n - 1][j] == bottom
            top_num = Polynomial.product_of_forms(
                (-nodes[l] for l in range(n) if l != j), n
            )
            assert inverse[0][j] == RationalExpr.make(top_num, factors)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_powersum_variant_agrees(self, n):
        nodes = variable_nodes(n)
        direct = vandermonde_inverse(nodes)
        powersum = vandermonde_inverse_powersum(nodes)
        for row_a, row_b in zip(direct, powersum):
            for a, b in zip(row_a, row_b):
                assert a == b


class TestSumIdentities:
    def test_power_sums_symbolic(self):
        for n in range(2, 5):
            nodes = variable_nodes(n)
            for k in range(1, n):
                assert power_sum_over_differences(nodes, k).is_zero
            assert power_sum_over_differences(nodes, n) == RationalExpr.one(n)

    def test_power_sums_random(self):
        rng = random.Random(17)
        for n in range(2, 7):
            for _ in range(50):
                nodes = random_plane_nodes(rng, n)
                for k in range(1, n):
                    assert power_sum_over_differences(nodes, k).is_zero
                assert power_sum_over_differences(nodes, n) == RationalExpr.one(2)

    def test_partition_of_unity_random(self):
        rng = random.Random(23)
        for n in range(2, 7):
            for _ in range(50):
                nodes = random_plane_nodes(rng, n)
                assert partition_of_unity_sum(nodes) == RationalExpr.one(2)
