"""Billey's closed formula as an oracle for the Thom classes of the flag variety.

Billey (Duke Math. J. 96, 1999): for a reduced word v = s_{a_1} ... s_{a_l},
the Schubert class xi^u restricted to v is

    sum over j_1 < ... < j_k with s_{a_{j_1}} ... s_{a_{j_k}} = u, k = l(u),
    of beta_{j_1} ... beta_{j_k},  beta_j = s_{a_1} ... s_{a_{j-1}}(alpha_{a_j}),

with alpha_i = x_i - x_{i+1} and s_i swapping the coordinate positions i and
i + 1.  On `permutahedron:n` the engine's class tau_w at the vertex v equals
this sum for u = w^-1 at v^-1.  The oracle uses only LinearForm and
Polynomial arithmetic: no graph, polarization or Thom-class code.
"""

import itertools

import pytest

from gkmcalc.builders import permutahedron
from gkmcalc.graph import polarize
from gkmcalc.symbolic import LinearForm, Polynomial
from gkmcalc.thom import ThomCalculator


def inverse(perm):
    out = [0] * len(perm)
    for position, value in enumerate(perm, start=1):
        out[value - 1] = position
    return tuple(out)


def length(perm):
    return sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])


def times_simple(perm, i):
    """perm * s_i in one-line notation: swap the positions i and i + 1 (1-based)."""
    out = list(perm)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def reduced_word(perm):
    """(a_1, ..., a_l) with perm = s_{a_1} ... s_{a_l}, l = length(perm)."""
    word = []
    while True:
        descent = next((i for i in range(1, len(perm)) if perm[i - 1] > perm[i]), None)
        if descent is None:
            return tuple(reversed(word))
        word.append(descent)
        perm = times_simple(perm, descent)


def act(perm, form):
    """perm acting on a linear form by x_k -> x_{perm(k)}."""
    coeffs = [0] * len(perm)
    for k, c in enumerate(form.coeffs):
        coeffs[perm[k] - 1] = c
    return LinearForm(coeffs)


def billey(u, v):
    """xi^u(v) by Billey's formula."""
    n = len(u)
    identity = tuple(range(1, n + 1))
    word = reduced_word(v)
    betas, prefix = [], identity
    for a in word:
        alpha = [0] * n
        alpha[a - 1], alpha[a] = 1, -1
        betas.append(act(prefix, LinearForm(alpha)))
        prefix = times_simple(prefix, a)
    total = Polynomial.zero(n)
    for chosen in itertools.combinations(range(len(word)), length(u)):
        product = identity
        for j in chosen:
            product = times_simple(product, word[j])
        if product == u:
            total = total + Polynomial.product_of_forms([betas[j] for j in chosen], n)
    return total


def billey_row(v):
    """{u: xi^u(v)} for every u with a nonzero value, in one pass over the
    subwords of a reduced word of v.

    A subword whose product has length k = l(u) has a reduced product at
    every prefix, so a subword grows letter by letter only while its product
    stays reduced: times_simple(perm, i) is longer than perm exactly when
    perm[i - 1] < perm[i].  Each beta product goes to its product u.
    """
    n = len(v)
    identity = tuple(range(1, n + 1))
    word = reduced_word(v)
    betas, prefix = [], identity
    for a in word:
        alpha = [0] * n
        alpha[a - 1], alpha[a] = 1, -1
        betas.append(act(prefix, LinearForm(alpha)))
        prefix = times_simple(prefix, a)
    row = {}
    stack = [(0, identity, Polynomial.one(n))]
    while stack:
        start, product, value = stack.pop()
        row[product] = row.get(product, Polynomial.zero(n)) + value
        for j in range(start, len(word)):
            a = word[j]
            if product[a - 1] < product[a]:
                stack.append((j + 1, times_simple(product, a), value * betas[j]))
    return row


@pytest.fixture(scope="module", params=[3, 4, 5])
def engine(request):
    n = request.param
    return n, ThomCalculator(polarize(permutahedron(n)))


def test_reduced_words():
    for perm in itertools.permutations(range(1, 5)):
        word = reduced_word(perm)
        assert len(word) == length(perm)
        product = tuple(range(1, 5))
        for a in word:
            product = times_simple(product, a)
        assert product == perm


def test_flag_variety_by_hand():
    # u = v = s_1: one subword, beta_1 = alpha_1 = x1 - x2
    assert billey((2, 1, 3), (2, 1, 3)) == LinearForm([1, -1, 0]).as_polynomial()
    # a class vanishes below its base
    assert billey((2, 1, 3), (1, 3, 2)).is_zero


def test_rows_match_billey_subsets():
    # the pruned one-pass rows against the formula over all subsets, on S_4
    perms = list(itertools.permutations(range(1, 5)))
    for v in perms:
        row = billey_row(v)
        for u in perms:
            assert row.get(u, Polynomial.zero(4)) == billey(u, v), (u, v)


def test_engine_matches_billey(engine):
    # every entry of the table: 14,400 on S_5
    n, calc = engine
    vertices = sorted(calc.graph.vertices)
    rows = {vertex: billey_row(inverse(tuple(map(int, vertex)))) for vertex in vertices}
    zero = Polynomial.zero(n)
    for base in vertices:
        tau = calc.thom_class_inductive(base)
        u = inverse(tuple(map(int, base)))
        for vertex in vertices:
            assert tau.values[vertex] == rows[vertex].get(u, zero), (base, vertex)
