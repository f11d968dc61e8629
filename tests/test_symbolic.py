from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkmcalc.errors import DimensionError, PolarizationError, ReductionError
from gkmcalc.symbolic import (
    _MAX_EXPONENT,
    LinearForm,
    Polynomial,
    RationalExpr,
    rho_form,
    rho_poly,
)

X1 = LinearForm([1, 0])
X2 = LinearForm([0, 1])

# simple roots of sl(3) as forms in three coordinates
A1 = LinearForm([-1, 1, 0])
A2 = LinearForm([0, -1, 1])


rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)


def poly_from_coeffs(dim, coeffs):
    terms = {}
    for expo, c in coeffs.items():
        if c != 0:
            terms[expo] = Fraction(c)
    return Polynomial(dim, terms)


exponents2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys2 = st.dictionaries(exponents2, rationals, max_size=5).map(
    lambda d: poly_from_coeffs(2, d)
)


class TestPair:
    def test_direct_dot_product(self):
        assert (X1 - X2).pair((2, 1)) == 1

    def test_zero_form(self):
        assert LinearForm.zero(3).pair((5, 7, 11)) == 0

    def test_epsilon_difference(self):
        e1 = LinearForm.basis(0, 3)
        e2 = LinearForm.basis(1, 3)
        assert (e2 - e1).pair((1, 2, 3)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            X1.pair((1, 2, 3))


class TestDividesLinear:
    def test_difference_of_squares(self):
        p = (X1 - X2).as_polynomial() * (X1 + X2).as_polynomial()
        q = p.divide_linear(X1 - X2)
        assert q == (X1 + X2).as_polynomial()

    def test_non_divisible(self):
        assert (X1 + X2).as_polynomial().divide_linear(X1 - X2) is None

    def test_root_product_divides(self):
        # verified by multiplying back
        p = A2.as_polynomial() * (A1 + A2).as_polynomial()
        q = p.divide_linear(A1 + A2)
        assert q is not None
        assert q * (A1 + A2).as_polynomial() == p
        assert q == A2.as_polynomial()

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.one(2).divide_linear(LinearForm.zero(2))


class TestPolynomialRing:
    @given(polys2, polys2, polys2)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys2)
    @settings(max_examples=30, deadline=None)
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero

    def test_canonical_rendering(self):
        p = (X1 + X2).as_polynomial() * (X1 - X2).as_polynomial() + Polynomial.constant(
            Fraction(3, 4), 2
        )
        assert p.render() == "x1^2 - x2^2 + 3/4"
        assert Polynomial.zero(2).render() == "0"

    def test_grlex_order(self):
        p = Polynomial(2, {(0, 2): Fraction(1), (1, 0): Fraction(1), (2, 0): Fraction(1)})
        assert p.render() == "x1^2 + x2^2 + x1"

    def test_evaluate(self):
        p = (X1 - X2).as_polynomial() ** 2
        assert p.evaluate((3, 1)) == 4

    def test_no_stored_zeros(self):
        p = (X1 + X2).as_polynomial() - (X1 + X2).as_polynomial()
        assert p.terms == {}


class TestRho:
    def test_kills_own_weight(self):
        w = X1 - X2
        assert rho_form(w, w, (2, 1)).is_zero

    def test_fixes_annihilator(self):
        # x1 + x2 annihilates xi = (1, -1)
        w = X1 - X2
        form = X1 + X2
        assert rho_form(form, w, (1, -1)) == form

    def test_flag_variety_projection(self):
        # projecting a1 + a2 along a1 gives the rank-one form that appears in
        # the flag variety path weights, up to the stated scalar
        xi = (1, 2, 4)
        s1 = A1.pair(xi)
        s2 = A2.pair(xi)
        got = rho_form(A1 + A2, A1, xi)
        expected = (A1.scale(s2) - A2.scale(s1)).scale(Fraction(-1, int(s1)))
        assert (got - expected).is_zero

    @given(polys2, polys2)
    @settings(max_examples=30, deadline=None)
    def test_ring_homomorphism(self, p, q):
        w = X1 - X2
        xi = (3, 1)
        assert rho_poly(p * q, w, xi) == rho_poly(p, w, xi) * rho_poly(q, w, xi)

    @given(polys2)
    @settings(max_examples=30, deadline=None)
    def test_idempotent_and_kills_direction(self, p):
        w = X1 - X2
        xi = (3, 1)
        image = rho_poly(p, w, xi)
        assert rho_poly(image, w, xi) == image
        assert image.directional_derivative(xi).is_zero

    def test_explicit_value(self):
        # x_i -> x_i - (xi_i/2)(x1 - x2), so both coordinates map to
        # -x1/2 + 3x2/2
        p = (X1 + X2).as_polynomial()
        assert rho_poly(p, X1 - X2, (3, 1)) == LinearForm([-1, 3]).as_polynomial()

    def test_zero_pairing_rejected(self):
        with pytest.raises(Exception):
            rho_form(X1, X1 - X2, (1, 1))


class TestRationalExpr:
    def test_reduces_difference_of_squares(self):
        num = (X1 - X2).as_polynomial() * (X1 + X2).as_polynomial()
        expr = RationalExpr.make(num, [X1 - X2])
        assert expr.is_polynomial
        assert expr.to_polynomial() == (X1 + X2).as_polynomial()

    def test_non_reducible_raises(self):
        expr = RationalExpr.make(Polynomial.one(2), [X1 - X2])
        assert not expr.is_polynomial
        with pytest.raises(ReductionError):
            expr.to_polynomial()

    def test_scaled_denominators_merge(self):
        a = RationalExpr.make(Polynomial.one(2), [X1 - X2])
        b = RationalExpr.make(Polynomial.one(2), [(X1 - X2).scale(2)])
        assert (a - b * 2).is_zero

    def test_cross_multiplied_equality(self):
        a = RationalExpr.make((X1 + X2).as_polynomial(), [X1 - X2])
        b = RationalExpr.make(
            (X1 + X2).as_polynomial() * (X1 - X2).as_polynomial(), [X1 - X2, X1 - X2]
        )
        assert a == b  # canonical form after reduction

    def test_addition_with_cancellation(self):
        # 1/(x1-x2) + 1/(x2-x1) = 0
        a = RationalExpr.make(Polynomial.one(2), [X1 - X2])
        b = RationalExpr.make(Polynomial.one(2), [X2 - X1])
        assert (a + b).is_zero

    @given(polys2, polys2)
    @settings(max_examples=25, deadline=None)
    def test_equality_consistent_with_cross_multiplication(self, p, q):
        d1 = X1 - X2
        d2 = X1 + X2
        a = RationalExpr.make(p, [d1])
        b = RationalExpr.make(q, [d2])
        cross = p * d2.as_polynomial() == q * d1.as_polynomial()
        assert (a == b) == cross

    @given(polys2, polys2, polys2)
    @settings(max_examples=30, deadline=None)
    def test_field_arithmetic_laws(self, p, q, r):
        d1, d2, d3 = X1 - X2, X1 + X2, X1
        a = RationalExpr.make(p, [d1])
        b = RationalExpr.make(q, [d2])
        c = RationalExpr.make(r, [d3])
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero

    def test_probe_prime_in_denominator(self):
        # (x1 - x2) * (x1/P + x2) with P = 2^61 - 1, a large prime in a
        # coefficient's denominator: exact division cancels the factor and
        # leaves the quotient with its coefficients 1/P and 1 unchanged
        c = Fraction(1, 2**61 - 1)
        quotient = X1.as_polynomial() * c + X2.as_polynomial()
        expr = RationalExpr.make((X1 - X2).as_polynomial() * quotient, [X1 - X2])
        assert expr.is_polynomial
        assert expr.to_polynomial() == quotient

    def test_rendering(self):
        expr = RationalExpr.make(Polynomial.one(2), [X1 - X2, X1 - X2])
        assert expr.render() == "(1) / ((x1 - x2)^2)"

    def test_degree(self):
        expr = RationalExpr.make((X1 + X2).as_polynomial() ** 3, [X1 - X2])
        assert expr.degree() == 2


# -- the packed kernel against a plain exponent-tuple / Fraction reference


def ref_add(a, b, sign=1):
    out = dict(a)
    for expo, c in b.items():
        out[expo] = out.get(expo, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c != 0}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            expo = tuple(x + y for x, y in zip(e1, e2))
            out[expo] = out.get(expo, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def ref_form(coeffs):
    dim = len(coeffs)
    return {
        tuple(int(j == i) for j in range(dim)): Fraction(c) for i, c in enumerate(coeffs) if c != 0
    }


def ref_substitute(a, forms, target_dim):
    out = {}
    for expo, c in a.items():
        term = {(0,) * target_dim: c}
        for form, e in zip(forms, expo):
            for _ in range(e):
                term = ref_mul(term, ref_form(form))
        out = ref_add(out, term)
    return out


def ref_divide(a, coeffs):
    """Quotient a/form by sweeping down the powers of the form's first
    variable, or None when the remainder is nonzero."""
    j = next(i for i, c in enumerate(coeffs) if c != 0)
    lead = Fraction(coeffs[j])
    remaining = dict(a)
    quotient = {}
    while remaining:
        expo = max(remaining, key=lambda e: (e[j], e))
        if expo[j] == 0:
            return None
        lowered = expo[:j] + (expo[j] - 1,) + expo[j + 1 :]
        c = remaining[expo] / lead
        quotient[lowered] = quotient.get(lowered, Fraction(0)) + c
        remaining = ref_add(remaining, ref_mul({lowered: c}, ref_form(coeffs)), -1)
    return {e: c for e, c in quotient.items() if c != 0}


@st.composite
def kernel_cases(draw):
    dim = draw(st.integers(1, 5))
    # monomials of total degree at most 4, as multisets of variables
    expo = st.lists(st.integers(0, dim - 1), max_size=4).map(
        lambda variables: tuple(variables.count(i) for i in range(dim))
    )
    terms = st.dictionaries(expo, rationals, max_size=5).map(
        lambda d: {e: Fraction(c) for e, c in d.items() if c != 0}
    )
    vector = st.lists(rationals, min_size=dim, max_size=dim)
    form = draw(vector.filter(lambda v: any(v)))
    target_dim = draw(st.integers(1, 5))
    forms = draw(
        st.lists(st.lists(rationals, min_size=target_dim, max_size=target_dim), min_size=dim, max_size=dim)
    )
    return dim, draw(terms), draw(terms), form, forms, draw(vector)


class TestPackedKernel:
    @given(kernel_cases())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_reference(self, case):
        dim, a, b, coeffs, images, xi = case
        pa, pb, form = Polynomial(dim, a), Polynomial(dim, b), LinearForm(coeffs)
        assert pa.terms == a
        for got, want in [
            (pa + pb, ref_add(a, b)),
            (pa - pb, ref_add(a, b, -1)),
            (pa * pb, ref_mul(a, b)),
            (pa * Fraction(-3, 4), {e: c * Fraction(-3, 4) for e, c in a.items()}),
        ]:
            assert got.terms == want
            assert got == Polynomial(dim, want)  # canonical storage
        # a multiple of the form divides back exactly; a multiple plus a
        # nonzero constant never divides
        product = pa * form
        assert product.divide_linear(form) == pa
        assert (product + 1).divide_linear(form) is None
        # an arbitrary pair: None exactly when the reference leaves a remainder
        quotient = pb.divide_linear(form)
        expected = ref_divide(b, coeffs)
        if expected is None:
            assert quotient is None
        else:
            assert quotient.terms == expected
        target_dim = len(images[0])
        forms = [LinearForm(image) for image in images]
        assert pa.substitute(forms).terms == ref_substitute(a, images, target_dim)
        pairing = form.pair(xi)
        if pairing != 0:
            rho_images = [
                [Fraction(int(i == k)) - Fraction(xi[i]) / pairing * Fraction(c) for k, c in enumerate(coeffs)]
                for i in range(dim)
            ]
            assert rho_poly(pa, form, xi).terms == ref_substitute(a, rho_images, dim)

    def test_substitution_through_zero(self):
        # x1 -> 0 leaves no terms before x2 is expanded
        assert X1.as_polynomial().substitute([LinearForm.zero(1)] * 2).is_zero

    def test_product_past_exponent_range_raises(self):
        top = _MAX_EXPONENT
        x2 = Polynomial.variable(1, 2)
        below = Polynomial(2, {(0, top - 1): Fraction(1, 3)})
        # the largest exponent still multiplies exactly, in x2 alone
        assert (below * x2).terms == {(0, top): Fraction(1, 3)}
        with pytest.raises(OverflowError):
            below * x2 * x2
        with pytest.raises(OverflowError):
            Polynomial(2, {(0, top + 1): 1})
        square_root = Polynomial(2, {(0, (top + 1) // 2): 1})
        with pytest.raises(OverflowError):
            square_root * square_root
        # substitution raises too: x1^top x2 -> x2^(top + 1)
        high = Polynomial(2, {(top, 1): 1})
        with pytest.raises(OverflowError):
            high.substitute([X2, X2])


# -- RationalExpr against a plain full-trial-division reference


def ref_monic(coeffs):
    lead = next(Fraction(c) for c in coeffs if c != 0)
    return tuple(Fraction(c) / lead for c in coeffs), lead


def ref_times_forms(terms, forms):
    for coeffs in forms:
        terms = ref_mul(terms, ref_form(coeffs))
    return terms


def ref_reduce(terms, forms):
    """terms / prod(forms) as (numerator terms, ((monic coefficients,
    multiplicity), ...)): every factor is tried as often as it divides, and
    the factors are sorted by their coefficients."""
    multiplicity = {}
    scale = Fraction(1)
    for coeffs in forms:
        monic, lead = ref_monic(coeffs)
        multiplicity[monic] = multiplicity.get(monic, 0) + 1
        scale /= lead
    terms = {e: c * scale for e, c in terms.items()}
    if not terms:
        return {}, ()
    for monic in multiplicity:
        while multiplicity[monic]:
            quotient = ref_divide(terms, monic)
            if quotient is None:
                break
            terms = quotient
            multiplicity[monic] -= 1
    return terms, tuple(sorted((m, k) for m, k in multiplicity.items() if k))


def ref_expand(den):
    return [monic for monic, k in den for _ in range(k)]


def as_expr(reference):
    terms, den = reference
    return RationalExpr(Polynomial(3, terms), tuple((LinearForm(m), k) for m, k in den))


def as_reference(expr):
    return dict(expr.num.terms), tuple((form.coeffs, k) for form, k in expr.den)


@st.composite
def rational_expr_cases(draw):
    # every factor is a multiple of one of a few forms in 3 variables, so
    # factors repeat and proportional factors meet
    base = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)
    pool = draw(st.lists(base, min_size=1, max_size=3))
    factor = st.tuples(st.sampled_from(pool), st.sampled_from([1, -1, 2, Fraction(-1, 2), 3])).map(
        lambda pair: [Fraction(c) * pair[1] for c in pair[0]]
    )
    exponent = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    cofactor = st.dictionaries(exponent, st.integers(-3, 3), max_size=3).map(
        lambda d: {e: Fraction(c) for e, c in d.items() if c}
    )
    factors = st.lists(factor, max_size=3)

    def expr():
        # numerators with factors of the pool, so that factors cancel
        terms = ref_times_forms(draw(cofactor), draw(st.lists(factor, max_size=2)))
        return ref_reduce(terms, draw(factors))

    return expr(), expr(), draw(factor), draw(factors), draw(factors)


class TestRationalExprReduction:
    @given(rational_expr_cases())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_full_trial_division(self, case):
        a, b, form, top, bottom = case
        (a_terms, a_den), (b_terms, b_den) = a, b
        x, y = as_expr(a), as_expr(b)
        a_forms, b_forms = ref_expand(a_den), ref_expand(b_den)
        left, right = ref_times_forms(a_terms, b_forms), ref_times_forms(b_terms, a_forms)
        top_terms = ref_times_forms({(0, 0, 0): Fraction(1)}, top)
        lift = [LinearForm(coeffs) for coeffs in bottom]
        for got, want in [
            (x + y, ref_reduce(ref_add(left, right), a_forms + b_forms)),
            (x - y, ref_reduce(ref_add(left, right, -1), a_forms + b_forms)),
            ((x + y) - y, a),  # the factors of y alone cancel in the second sum
            (x * y, ref_reduce(ref_mul(a_terms, b_terms), a_forms + b_forms)),
            (x.div_form(LinearForm(form)), ref_reduce(a_terms, a_forms + [form])),
            (
                RationalExpr.of_forms([LinearForm(coeffs) for coeffs in top], lift, 3),
                ref_reduce(top_terms, bottom),
            ),
            (RationalExpr.make(Polynomial(3, top_terms), lift), ref_reduce(top_terms, bottom)),
        ]:
            assert as_reference(got) == want
        # canonical: the same value by another order of operations is the
        # same structure, so == needs no cross-multiplication
        z = x.div_form(LinearForm(form))
        assert y + x == x + y
        assert y * x == x * y
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)

    def test_of_forms_with_a_zero_form(self):
        zero = LinearForm.zero(2)
        assert RationalExpr.of_forms([X1, zero], [X2], 2).is_zero
        with pytest.raises(ZeroDivisionError):
            RationalExpr.of_forms([X1], [X2, zero], 2)


# -- RationalExpr kernels against make, which trial-divides by every factor


def expand(den):
    return [form for form, mult in den for _ in range(mult)]


def assert_canonical(expr):
    # monic factors, sorted by their coefficients, none dividing the numerator
    forms = [form for form, _ in expr.den]
    assert all(mult > 0 for _, mult in expr.den)
    assert all(next(c for c in form.coeffs if c) == 1 for form in forms)
    assert [form.coeffs for form in forms] == sorted({form.coeffs for form in forms})
    if expr.is_zero:
        assert expr.den == ()
    assert all(expr.num.divide_linear(form) is None for form in forms)


@st.composite
def kernel_cases(draw):
    # forms are multiples of a few forms in 3 variables, so that factors
    # repeat, cancel and divide the numerators
    base = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)
    pool = draw(st.lists(base, min_size=1, max_size=3))
    form = st.tuples(st.sampled_from(pool), st.sampled_from([1, -1, 2, Fraction(-1, 2), 3])).map(
        lambda pair: LinearForm([Fraction(c) * pair[1] for c in pair[0]])
    )
    forms = st.lists(form, max_size=3)
    exponent = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    # nonzero: zero operands are a kind of their own
    nonzero = rationals.filter(bool)
    cofactor = st.dictionaries(exponent, nonzero, min_size=1, max_size=3).map(lambda d: Polynomial(3, d))

    def poly():
        return draw(cofactor) * Polynomial.product_of_forms(draw(forms), 3)

    kinds = ["general", "cancelling", "equal", "zero", "polynomial", "polynomials"]
    kind = draw(st.sampled_from(kinds))
    a = RationalExpr(poly()) if kind == "polynomials" else RationalExpr.make(poly(), draw(forms))
    if kind == "cancelling":
        # b has the factors of a and a form proportional to none in the pool,
        # so a + b lifts a and must cancel the factors of a
        b = RationalExpr.make(poly(), draw(forms)).div_form(LinearForm([1, 3, 9])) - a
    elif kind == "equal":  # over a's denominator, and a + b has a's factors in its numerator
        factors = expand(a.den)
        kept = draw(st.lists(st.sampled_from(factors), max_size=2)) if factors else []
        b = RationalExpr.make(poly() * Polynomial.product_of_forms(kept, 3) - a.num, factors)
    elif kind == "zero":
        b = RationalExpr.zero(3)
    elif kind in ("polynomial", "polynomials"):
        b = RationalExpr(poly())
    else:
        b = RationalExpr.make(poly(), draw(forms))
    if draw(st.booleans()):
        a, b = b, a
    return kind, draw(forms), draw(forms), a, b


class TestRationalExprKernels:
    @given(kernel_cases())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_make(self, case):
        kind, top, bottom, a, b = case
        if kind == "equal":
            assume(a.den == b.den)
        quotient = RationalExpr.of_forms(top, bottom, 3)
        assert quotient == RationalExpr.make(Polynomial.product_of_forms(top, 3), bottom)
        left, right = expand(a.den), expand(b.den)
        cross = a.num * Polynomial.product_of_forms(right, 3) + b.num * Polynomial.product_of_forms(left, 3)
        total, product = a + b, a * b
        assert total == RationalExpr.make(cross, left + right)
        assert product == RationalExpr.make(a.num * b.num, left + right)
        if b.is_polynomial:
            assert a + b.num == total and a * b.num == product
        for value in (a, b, quotient, total, product):
            assert_canonical(value)


# -- linear forms against a plain Fraction-tuple reference


def as_text(value):
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


# one coefficient as an int, a Fraction or a "p/q" string
mixed_rationals = st.one_of(st.integers(-12, 12), rationals, rationals.map(as_text))


@st.composite
def form_cases(draw):
    dim = draw(st.integers(1, 4))
    vector = st.lists(mixed_rationals, min_size=dim, max_size=dim)
    a, b, xi = draw(vector), draw(vector), draw(vector)
    if draw(st.booleans()):  # often proportional
        ratio = draw(rationals)
        b = [Fraction(c) * ratio for c in a]
    return a, b, xi, draw(mixed_rationals)


def ref_proportional(a, b):
    if not any(a) or not any(b):
        return not any(a) and not any(b)
    ratio = None
    for x, y in zip(a, b):
        if x == 0 and y == 0:
            continue
        if x == 0 or y == 0:
            return False
        if ratio is None:
            ratio = x / y
        elif x != ratio * y:
            return False
    return True


class TestLinearForm:
    @given(form_cases())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_fraction_reference(self, case):
        a_in, b_in, xi_in, factor = case
        a, b, xi = (tuple(Fraction(c) for c in v) for v in (a_in, b_in, xi_in))
        f = Fraction(factor)
        A, B = LinearForm(a_in), LinearForm(b_in)
        assert A.coeffs == a and B.coeffs == b
        assert all(type(c) is Fraction for c in A.coeffs)
        # equal forms built from ints, Fractions and strings compare and hash equal
        for same in (LinearForm(a), LinearForm([as_text(c) for c in a]), (A + B) - B, -(-A)):
            assert same == A and hash(same) == hash(A)
        assert (A == B) == (a == b)
        assert (A + B).coeffs == tuple(x + y for x, y in zip(a, b))
        assert (A - B).coeffs == tuple(x - y for x, y in zip(a, b))
        assert (-A).coeffs == tuple(-x for x in a)
        assert A.scale(factor).coeffs == tuple(f * x for x in a)
        assert A.pair(xi_in) == sum((x * y for x, y in zip(a, xi)), Fraction(0))
        assert A.proportional(B) == ref_proportional(a, b)
        assert A.is_zero == (not any(a))
        if any(a):
            monic, scale = A.normalized()
            lead = next(c for c in a if c)
            assert scale == lead
            assert monic.coeffs == tuple(x / lead for x in a)
        else:
            with pytest.raises(ValueError):
                A.normalized()
        assert A.as_polynomial().terms == ref_form(a)
        pairing = sum((y * z for y, z in zip(b, xi)), Fraction(0))
        if pairing:
            ratio = sum((x * z for x, z in zip(a, xi)), Fraction(0)) / pairing
            assert rho_form(A, B, xi_in).coeffs == tuple(x - ratio * y for x, y in zip(a, b))
        else:
            with pytest.raises(PolarizationError):
                rho_form(A, B, xi_in)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            X1 + A1
        with pytest.raises(DimensionError):
            rho_form(X1, X2, (1, 2, 3))
