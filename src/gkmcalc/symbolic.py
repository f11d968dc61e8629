"""Exact multivariate polynomial and rational-form arithmetic over Q.

Everything in the package funnels through three value types:

* :class:`LinearForm` -- an element of g*, a coefficient vector over a fixed
  basis x_1, ..., x_n, stored as int numerators over one shared positive
  denominator.  Edge weights, polarization projections, interpolation nodes
  and the denominator factors of rational expressions are all linear forms.
* :class:`Polynomial` -- a sparse element of S(g*) with exact rational
  coefficients, rendered in the graded-lexicographic term order with
  x_1 > ... > x_n.  Each monomial is packed into one int with a guarded
  16-bit field per variable (an exponent above 2**15 - 1 raises
  OverflowError), and the coefficients are int numerators over one shared
  positive denominator, so the arithmetic runs on ints.
* :class:`RationalExpr` -- a polynomial divided by a multiset of linear
  forms.  Every denominator produced by the localization and path-weight
  formulas is a product of linear forms, so simplification is trial
  division rather than general multivariate gcd.

No floating point appears anywhere, and the arithmetic of all three types
runs on ints.  Every rational value a caller sees is a `fractions.Fraction`:
`LinearForm.coeffs` shows a form's storage as a tuple of Fractions and
`Polynomial.terms` shows the packed storage as {exponent tuple: Fraction}.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import re
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import DimensionError, PolarizationError, ReductionError

RationalLike = Union[Fraction, int, str]

Exponent = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, string "p" or "p/q" or Fraction to an exact rational.

    Text is an optional sign, digits and an optional "/digits", as
    format_rational writes it; anything else (exponents, decimals, spaces)
    raises ValueError, so text cannot ask for an integer far larger than
    itself, as "1e20000" would."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and not _RATIONAL_TEXT.fullmatch(value):
        raise ValueError(f"{value!r} is not a rational p or p/q")
    return Fraction(value)


def rat_vector(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def _int_vector(values: Iterable[RationalLike]) -> tuple[tuple[int, ...], int]:
    """(ints, den) with values = ints/den for the least positive den; ints and
    Fractions are read as they are, anything else goes through rat."""
    values = [v if isinstance(v, (int, Fraction)) else rat(v) for v in values]
    den = math.lcm(*[v.denominator for v in values])
    if den == 1:
        return tuple([v.numerator for v in values]), 1
    return tuple([v.numerator * (den // v.denominator) for v in values]), den


def format_rational(value: Fraction) -> str:
    """Canonical text for a rational: integers bare, otherwise "p/q".

    The digits come from Decimal, which is exact for ints and, unlike
    str(int), has no limit on their number."""
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def default_names(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


# ---------------------------------------------------------------------------
# linear forms


class LinearForm:
    """A linear form sum_i c_i x_i with exact rational coefficients.

    Stored like Polynomial's coefficients: an int numerator tuple over one
    positive shared denominator with no common factor, so equal forms store
    equal tuples and structural equality is mathematical equality.  The hash
    is computed once.  The constructor takes ints, Fractions and "p/q"
    strings; `coeffs` is the read-only Fraction view, built on first use,
    as are `_poly` and the `_divisor` data of `Polynomial.divide_linear`.
    """

    __slots__ = ("_num", "_den", "_hash", "_coeffs", "_poly", "_divisor")

    def __new__(cls, coeffs: Iterable[RationalLike]) -> "LinearForm":
        return LinearForm._canonical(*_int_vector(coeffs))

    @staticmethod
    def _canonical(num: tuple[int, ...], den: int) -> "LinearForm":
        """Wrap int numerators over a nonzero den, making den positive and
        dividing out the common factor."""
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
        form = object.__new__(LinearForm)
        form._num, form._den, form._hash = num, den, hash((num, den))
        form._coeffs = form._poly = form._divisor = None
        return form

    @staticmethod
    def zero(dim: int) -> "LinearForm":
        return LinearForm._canonical((0,) * dim, 1)

    @staticmethod
    def basis(index: int, dim: int) -> "LinearForm":
        """The coordinate form x_{index+1}."""
        return LinearForm._canonical(tuple(int(i == index) for i in range(dim)), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as a read-only tuple of Fractions."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple(Fraction(c, den) for c in self._num)
        return self._coeffs

    @property
    def dim(self) -> int:
        return len(self._num)

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    def _check_dim(self, other: "LinearForm") -> None:
        if self.dim != other.dim:
            raise DimensionError(f"linear forms of dimension {self.dim} and {other.dim}")

    def _combine(self, other: "LinearForm", sign: int) -> "LinearForm":
        """self + sign * other over the least common denominator."""
        self._check_dim(other)
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        return LinearForm._canonical(tuple(a * x + b * y for x, y in zip(self._num, other._num)), den)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return self._combine(other, 1)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self._combine(other, -1)

    def __neg__(self) -> "LinearForm":
        return LinearForm._canonical(tuple(-c for c in self._num), self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return self._hash

    def scale(self, factor: RationalLike) -> "LinearForm":
        f = rat(factor)
        return LinearForm._canonical(tuple(f.numerator * c for c in self._num), self._den * f.denominator)

    def pair(self, xi: Sequence[RationalLike]) -> Fraction:
        """Dual pairing of the form with a vector xi in g."""
        if len(xi) != self.dim:
            raise DimensionError(f"form of dimension {self.dim} paired with vector of length {len(xi)}")
        direction, den = _int_vector(xi)
        return Fraction(sum(map(operator.mul, self._num, direction)), self._den * den)

    def proportional(self, other: "LinearForm") -> bool:
        """True when one form is a rational multiple of the other (zero counts)."""
        self._check_dim(other)
        a, b = self._num, other._num
        if not any(a) or not any(b):
            return not any(a) and not any(b)
        j = next(i for i, c in enumerate(a) if c)
        return all(x * b[j] == y * a[j] for x, y in zip(a, b))

    def as_polynomial(self) -> "Polynomial":
        if self._poly is None:
            n = len(self._num)
            num = {1 << _FIELD * (n - 1 - i): c for i, c in enumerate(self._num) if c}
            self._poly = Polynomial._canonical(n, num, self._den)
        return self._poly

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        return self.as_polynomial().render(names)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LinearForm({self.render()})"


# ---------------------------------------------------------------------------
# polynomials
#
# Packed monomials (Monagan-Pearce, CASC 2007): an exponent tuple
# (e_1, ..., e_n) is one int with _FIELD bits per variable, x_1 in the
# highest field, so int order is lex order and multiplying monomials adds
# their keys.  The top bit of every field is a guard: stored exponents stay
# at most _MAX_EXPONENT, so adding two keys never carries into the next
# field, and a product that reaches a guard bit raises OverflowError instead
# of wrapping.
#
# Coefficients are int numerators over one positive shared denominator with
# gcd(denominator, numerators) = 1, which makes the denominator the least
# one that clears every coefficient.  The form is canonical: equal
# polynomials store equal dicts and denominators.

_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
_MAX_EXPONENT = (1 << (_FIELD - 1)) - 1


@functools.lru_cache(maxsize=64)
def _guard(dim: int) -> int:
    """The guard bits of every field of a dim-variable key."""
    return ((1 << _FIELD * dim) - 1) // _FIELD_MASK << (_FIELD - 1)


def _pack(expo: Exponent, dim: int) -> int:
    if len(expo) != dim:
        raise DimensionError(f"exponent {tuple(expo)} for dimension {dim}")
    key = 0
    for e in expo:
        if e < 0:
            raise ValueError(f"negative exponent in {tuple(expo)}")
        if e > _MAX_EXPONENT:
            raise OverflowError(f"exponent {e} exceeds {_MAX_EXPONENT}")
        key = key << _FIELD | e
    return key


def _unpack(key: int, dim: int) -> Exponent:
    expo = [0] * dim
    for i in range(dim - 1, -1, -1):
        expo[i] = key & _FIELD_MASK
        key >>= _FIELD
    return tuple(expo)


def _degree(key: int) -> int:
    total = 0
    while key:
        total += key & _FIELD_MASK
        key >>= _FIELD
    return total


# raw term-dict helpers; dicts map packed keys to nonzero ints


def _add_into(target: dict, source: dict, scale: int = 1) -> None:
    """target += scale * source, for a nonzero scale."""
    for key, value in source.items():
        value = target.get(key, 0) + scale * value
        if value:
            target[key] = value
        else:
            del target[key]


def _mul_terms(d1: dict, d2: dict, guard: int) -> dict:
    """The product; OverflowError when an exponent reaches a guard bit."""
    if len(d1) > len(d2):
        d1, d2 = d2, d1
    out: dict = {}
    get = out.get
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    if not out:
        return out
    if functools.reduce(operator.or_, out) & guard:
        raise OverflowError(f"product has an exponent above {_MAX_EXPONENT}")
    if 0 in out.values():
        return {key: value for key, value in out.items() if value}
    return out


def _derivative(terms: dict, direction: Sequence[int], dim: int) -> dict:
    """The derivative along an int vector."""
    out: dict = {}
    get = out.get
    for i, v in enumerate(direction):
        if v:
            shift = _FIELD * (dim - 1 - i)
            unit = 1 << shift
            for key, c in terms.items():
                e = key >> shift & _FIELD_MASK
                if e:
                    out[key - unit] = get(key - unit, 0) + c * e * v
    return {key: c for key, c in out.items() if c}


class Polynomial:
    """Sparse polynomial in S(g*) with exact rational coefficients.

    Built from {exponent tuple: coefficient}; stored as packed monomial keys
    with int numerators over one shared denominator (see the comment above
    `_FIELD`).  `terms` is the read-only {exponent tuple: Fraction} view,
    built on first use.  No exponent of a single variable may exceed
    2**15 - 1: the constructor, products and substitutions raise
    OverflowError past it.  The hash is computed on first use and kept, so
    nothing may write into a built polynomial's `_num`.
    """

    __slots__ = ("dim", "_num", "_den", "_view", "_hash")

    def __init__(self, dim: int, terms: Optional[dict] = None):
        coeffs = {}
        for expo, value in (terms or {}).items():
            value = rat(value)
            if value:
                coeffs[_pack(expo, dim)] = value
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.dim = dim
        self._num = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        self._den = den
        self._view = self._hash = None

    @staticmethod
    def _canonical(dim: int, num: dict, den: int) -> "Polynomial":
        """Wrap int numerators over a positive den, dividing out their
        common factor."""
        if not num:
            den = 1
        elif den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {key: value // g for key, value in num.items()}
        poly = object.__new__(Polynomial)
        poly.dim, poly._num, poly._den, poly._view, poly._hash = dim, num, den, None, None
        return poly

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only {exponent tuple: nonzero Fraction} view."""
        if self._view is None:
            dim, den = self.dim, self._den
            self._view = MappingProxyType(
                {_unpack(key, dim): Fraction(value, den) for key, value in self._num.items()}
            )
        return self._view

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial._canonical(dim, {}, 1)

    @staticmethod
    def constant(value: RationalLike, dim: int) -> "Polynomial":
        c = rat(value)
        return Polynomial._canonical(dim, {0: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def one(dim: int) -> "Polynomial":
        return Polynomial.constant(1, dim)

    @staticmethod
    def product_of_forms(forms: Iterable[LinearForm], dim: int) -> "Polynomial":
        return RationalExpr.of_forms(forms, (), dim).num

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def total_degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        return max(map(_degree, self._num), default=-1)

    def homogeneous_degree(self) -> Optional[int]:
        """The common total degree of all terms, or None if inhomogeneous.

        The zero polynomial is homogeneous of every degree; returns -1.
        """
        degrees = set(map(_degree, self._num))
        if not degrees:
            return -1
        if len(degrees) == 1:
            return degrees.pop()
        return None

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise DimensionError(f"polynomials of dimension {self.dim} and {other.dim}")
            return other
        if isinstance(other, LinearForm):
            if other.dim != self.dim:
                raise DimensionError(f"polynomial of dimension {self.dim}, form of dimension {other.dim}")
            return other.as_polynomial()
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.dim)
        return NotImplemented

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the least common denominator."""
        if not other._num:
            return self
        if not self._num:
            return other if sign > 0 else -other
        den = math.lcm(self._den, other._den)
        scale = den // self._den
        out = dict(self._num) if scale == 1 else {k: v * scale for k, v in self._num.items()}
        _add_into(out, other._num, sign * (den // other._den))
        return Polynomial._canonical(self.dim, out, den)

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self._combine(rhs, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self._combine(rhs, -1)

    def __rsub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs._combine(self, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._canonical(self.dim, {k: -v for k, v in self._num.items()}, self._den)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (Polynomial, LinearForm)):
            rhs = self._coerce(other)
            num = _mul_terms(self._num, rhs._num, _guard(self.dim))
            return Polynomial._canonical(self.dim, num, self._den * rhs._den)
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            num = {k: v * c.numerator for k, v in self._num.items()} if c else {}
            return Polynomial._canonical(self.dim, num, self._den * c.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.dim)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(other, self.dim)
        return self.dim == other.dim and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dim, self._den, frozenset(self._num.items())))
        return self._hash

    # -- evaluation and substitution -------------------------------------

    def substitute(self, forms: Sequence[LinearForm]) -> "Polynomial":
        """Ring homomorphism sending x_i to forms[i], by Horner's rule in
        each variable in turn."""
        if len(forms) != self.dim:
            raise DimensionError("substitution needs one form per variable")
        target_dim = forms[0].dim if forms else self.dim
        if any(form.dim != target_dim for form in forms):
            raise DimensionError("substitution forms of different dimensions")
        if not self._num:
            return Polynomial.zero(target_dim)
        images = [form.as_polynomial() for form in forms]
        # F_i = scale * forms[i] has int coefficients; scaling a term of
        # degree k by scale^(top - k) makes the image under x_i -> F_i equal
        # scale^top times the image under x_i -> forms[i]
        scale = math.lcm(*(image._den for image in images))
        ints = [
            image._num if image._den == scale
            else {k: v * (scale // image._den) for k, v in image._num.items()}
            for image in images
        ]
        num, den = self._num, self._den
        if scale != 1:
            top = self.total_degree()
            num = {k: v * scale ** (top - _degree(k)) for k, v in num.items()}
            den *= scale**top
        # keys carry the source fields above the target fields; each pass,
        # x_1 first, expands one variable and leaves its field zero
        low = _FIELD * target_dim
        guard = _guard(self.dim + target_dim)
        terms = {key << low: value for key, value in num.items()}
        for i in range(self.dim):
            shift = low + _FIELD * (self.dim - 1 - i)
            slices: dict[int, dict] = {}
            for key, value in terms.items():
                e = key >> shift & _FIELD_MASK
                slices.setdefault(e, {})[key - (e << shift)] = value
            top = max(slices, default=0)  # no terms left once a variable maps to 0
            if top == 0:
                continue
            terms = slices[top]
            for e in range(top - 1, -1, -1):
                terms = _mul_terms(terms, ints[i], guard)
                part = slices.get(e)
                if part:
                    _add_into(terms, part)
        return Polynomial._canonical(target_dim, terms, den)

    def directional_derivative(self, xi: Sequence[RationalLike]) -> "Polynomial":
        """Derivative along the vector xi; zero iff the value lies in S(g*_xi)."""
        if len(xi) != self.dim:
            raise DimensionError("direction vector has wrong length")
        direction, den = _int_vector(xi)
        return Polynomial._canonical(self.dim, _derivative(self._num, direction, self.dim), self._den * den)

    # -- division ---------------------------------------------------------

    def divide_linear(self, form: LinearForm) -> Optional["Polynomial"]:
        """Exact quotient self/form, or None when form does not divide self.

        One pass over the dividend in descending packed-key (lex) order.
        Let form = L/D for an int form L whose leading variable x_j has
        coefficient c > 0, and scale the numerators N by c^top, top the
        x_j-degree of N.  Pseudo-division (Knuth, TAOCP 4.6.1) gives
        c^top N = Q L + R with Q and R over the ints and no x_j in R, and
        the pair is unique.  So the largest key K left in the remainder
        either holds x_j, K = x_j K', and its value is c Q[K'], an exact
        floor division by c; or it is free of x_j and its value is the
        coefficient of R there, and the pass returns None at the first such
        nonzero value.  Subtracting Q[K'] K' L writes only keys below K,
        since the other variables of L come after x_j.  The form keeps its
        lead key, c and the offsets of its other terms for the next call.
        The zero form raises ValueError, whatever the dividend.
        """
        if form.dim != self.dim:
            raise DimensionError("divisor dimension mismatch")
        if form._divisor is None:
            divisor = form.as_polynomial()
            if not divisor._num:
                raise ValueError("division by the zero form")
            lead = max(divisor._num)  # the unit key of x_j
            c = divisor._num[lead]
            sign = 1 if c > 0 else -1
            # sign L = c x_j + sum a x_i: the quotient term at K' = K - lead,
            # times sign L, writes c at K and each a at K' x_i = K + offset
            rest = tuple((key - lead, sign * value) for key, value in divisor._num.items() if key != lead)
            form._divisor = (lead, sign * c, sign * divisor._den, rest, _FIELD_MASK * lead)
        if not self._num:
            return self
        lead, c, factor, rest, field = form._divisor  # field: the bits of x_j
        power = 1
        if c == 1:
            remainder = dict(self._num)
        else:
            power = c ** (max(key & field for key in self._num) // lead)
            remainder = {key: value * power for key, value in self._num.items()}
        heap = [-key for key in remainder]  # each key enters once: written keys only fall
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        quotient: dict = {}
        get = remainder.get
        while heap:
            key = -pop(heap)
            value = remainder[key]  # read once: later writes fall below key
            if not value:
                continue
            if not key & field:
                return None
            value //= c
            quotient[key - lead] = value
            for offset, a in rest:
                low = key + offset
                old = get(low)
                if old is None:
                    remainder[low] = -a * value
                    push(heap, -low)
                else:
                    remainder[low] = old - a * value
        if factor != 1:
            quotient = {key: value * factor for key, value in quotient.items()}
        return Polynomial._canonical(self.dim, quotient, self._den * power)

    # -- rendering ----------------------------------------------------------

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        """Canonical text: graded-lex term order, rationals as p/q."""
        if not self._num:
            return "0"
        if names is None:
            names = default_names(self.dim)
        pieces: list[str] = []
        # int order on packed keys is lex order on exponents
        keys = sorted(self._num, key=lambda key: (_degree(key), key), reverse=True)
        for index, key in enumerate(keys):
            coeff = Fraction(self._num[key], self._den)
            factors = []
            for name, e in zip(names, _unpack(key, self.dim)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            magnitude = abs(coeff)
            if factors:
                body = "*".join(factors)
                if magnitude != 1:
                    body = f"{format_rational(magnitude)}*{body}"
            else:
                body = format_rational(magnitude)
            if index == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


# ---------------------------------------------------------------------------
# the projection killing the xi-direction


def rho_poly(poly: Polynomial, edge_weight: LinearForm, xi: Sequence[RationalLike]) -> Polynomial:
    """Project into the annihilator of xi along an edge weight, on S(g*); a
    ring homomorphism that negating the weight leaves unchanged.

    On a linear form rho_e(alpha) = alpha - (alpha(xi)/alpha_e(xi)) alpha_e,
    which is alpha(xi) (ahat - ahat_e) for nodes ahat = alpha/alpha(xi).
    rho_e(P)(x) = P(x - t xi) with t = alpha_e(x)/alpha_e(xi): the Taylor
    shift sum_k (-t)^k D_xi^k P / k! in the single direction xi, summed by
    Horner's rule in alpha_e.
    """
    n = poly.dim
    if edge_weight.dim != n or len(xi) != n:
        raise DimensionError(
            f"polynomial of dimension {n}, form of dimension {edge_weight.dim}, xi of length {len(xi)}"
        )
    # with int multiples W of alpha_e and X of xi, t = W(x)/s for s = W(X)
    direction, _ = _int_vector(xi)
    weight = edge_weight.as_polynomial()._num
    s = sum(map(operator.mul, edge_weight._num, direction))
    if s == 0:
        raise PolarizationError(f"edge weight {edge_weight} pairs to zero with xi")
    minus_w = {key: -a for key, a in weight.items()} if s > 0 else dict(weight)
    s = abs(s)
    # taylor[k] = D_X^k P / k!, an exact division
    taylor = [poly._num]
    while True:
        derivative = _derivative(taylor[-1], direction, n)
        if not derivative:
            break
        k = len(taylor)
        taylor.append({key: c // k for key, c in derivative.items()})
    # sum_k (-W)^k s^(d-k) taylor[k] by Horner's rule, over s^d
    terms, scale, guard = taylor[-1], 1, _guard(n)
    for coefficient in reversed(taylor[:-1]):
        scale *= s
        terms = _mul_terms(terms, minus_w, guard)
        _add_into(terms, coefficient, scale)
    return Polynomial._canonical(n, terms, poly._den * scale)


# ---------------------------------------------------------------------------
# rational expressions with linear-form denominators


DenFactor = tuple[LinearForm, int]


class RationalExpr:
    """A quotient num / prod_i f_i^{m_i} with linear-form denominators.

    Instances are canonical: denominator factors are monic, sorted, and no
    factor divides the numerator (the polynomial ring is a UFD and linear
    forms are prime, so structural equality is mathematical equality).

    Each operation trial-divides only by the factors that can cancel
    (Henrici, JACM 1956; Knuth, TAOCP 2, 4.5.1), which the invariant and
    primality decide:

    * `of_forms`, a quotient of two products of linear forms, divides
      nothing: a linear form divides such a product only when it is
      proportional to one of its factors, so equal monic forms cancel.
    * `*` never tries a factor of both operands, since it divides neither
      numerator; a factor of one operand only is divided out of the other
      operand's numerator, and the product is not trial-divided.
    * `+` tries only the factors of equal multiplicity in both terms: over
      the common denominator a factor of unequal multiplicity divides one
      numerator but not the other, so not their sum.

    `make` and `div_form` are products with an `of_forms` quotient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: tuple[DenFactor, ...] = ()):
        self.num = num
        self.den = den

    @staticmethod
    def make(num: Polynomial, factors: Iterable[LinearForm] = ()) -> "RationalExpr":
        """num / prod(factors), canonicalized; `factors` may repeat and need
        not be monic."""
        return RationalExpr(num) * RationalExpr.of_forms((), factors, num.dim)

    @staticmethod
    def of_forms(top: Iterable[LinearForm], bottom: Iterable[LinearForm], dim: int) -> "RationalExpr":
        """prod(top) / prod(bottom), cancelled by matching monic forms with no
        trial division; the kept forms' term dicts multiply directly."""
        collected: dict[LinearForm, int] = {}
        up = down = 1  # the scalar the forms carry, up/down
        for form in bottom:
            monic, lead, den = _monic(form)
            collected[monic] = collected.get(monic, 0) + 1
            up *= den
            down *= lead
        terms, guard = {0: 1}, _guard(dim)
        for form in top:
            if form.is_zero:
                return RationalExpr.zero(dim)
            monic, lead, den = _monic(form)
            up *= lead
            down *= den
            if collected.get(monic):
                collected[monic] -= 1
            else:
                image = monic.as_polynomial()
                terms = _mul_terms(terms, image._num, guard)
                down *= image._den
        if down < 0:
            up, down = -up, -down
        if up != 1:
            terms = {key: value * up for key, value in terms.items()}
        return RationalExpr._reduced(Polynomial._canonical(dim, terms, down), collected, ())

    @staticmethod
    def _reduced(
        num: Polynomial, collected: dict[LinearForm, int], trial: Iterable[LinearForm]
    ) -> "RationalExpr":
        """num / prod collected in canonical form, dividing num only by the
        factors in `trial`; the caller vouches that no other factor of
        `collected` divides num."""
        if num.is_zero:
            return RationalExpr(num, ())
        for form in trial:
            num, collected[form] = _divide_out(num, form, collected[form])
        # the monic-coefficient order, compared on numerators over one
        # common denominator
        kept = [(form, mult) for form, mult in collected.items() if mult]
        if len(kept) < 2:
            return RationalExpr(num, tuple(kept))
        common = math.lcm(*(form._den for form, _ in kept))
        den = tuple(sorted(kept, key=lambda kv: [c * (common // kv[0]._den) for c in kv[0]._num]))
        return RationalExpr(num, den)

    @staticmethod
    def zero(dim: int) -> "RationalExpr":
        return RationalExpr(Polynomial.zero(dim), ())

    @staticmethod
    def one(dim: int) -> "RationalExpr":
        return RationalExpr(Polynomial.one(dim), ())

    @property
    def dim(self) -> int:
        return self.num.dim

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return not self.den

    def to_polynomial(self) -> Polynomial:
        if self.den:
            raise ReductionError(f"does not reduce to a polynomial: {self.render()}")
        return self.num

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "RationalExpr":
        if isinstance(other, RationalExpr):
            return other
        if isinstance(other, Polynomial):
            return RationalExpr(other)
        if isinstance(other, LinearForm):
            return RationalExpr(other.as_polynomial())
        if isinstance(other, (int, Fraction)):
            return RationalExpr(Polynomial.constant(other, self.dim))
        return NotImplemented

    def __add__(self, other) -> "RationalExpr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return rhs
        if rhs.is_zero:
            return self
        if rhs.dim != self.dim:
            raise DimensionError(f"rational expressions of dimension {self.dim} and {rhs.dim}")
        if self.den == rhs.den:
            collected = dict(self.den)
            return RationalExpr._reduced(self.num._combine(rhs.num, 1), collected, list(collected))
        left_den, right_den = dict(self.den), dict(rhs.den)
        common: dict[LinearForm, int] = dict(left_den)
        for form, mult in right_den.items():
            common[form] = max(common.get(form, 0), mult)
        # each numerator times the forms its denominator lacks, as int terms
        # over an int denominator
        guard = _guard(self.dim)
        lifted = []
        for expr, own in ((self, left_den), (rhs, right_den)):
            terms, den = expr.num._num, expr.num._den
            for form, mult in common.items():
                missing = mult - own.get(form, 0)
                if missing:
                    image = form.as_polynomial()
                    for _ in range(missing):
                        terms = _mul_terms(terms, image._num, guard)
                        den *= image._den
            lifted.append((terms, den))
        (left, left_scale), (right, right_scale) = lifted
        den = math.lcm(left_scale, right_scale)
        terms = {key: value * (den // left_scale) for key, value in left.items()}
        _add_into(terms, right, den // right_scale)
        trial = [form for form, mult in left_den.items() if right_den.get(form) == mult]
        return RationalExpr._reduced(Polynomial._canonical(self.dim, terms, den), common, trial)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalExpr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr(-self.num, self.den)

    def __mul__(self, other) -> "RationalExpr":
        if not isinstance(other, RationalExpr) and isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                return RationalExpr.zero(self.dim)
            return RationalExpr(self.num * c, self.den)
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs.dim != self.dim:
            raise DimensionError(f"rational expressions of dimension {self.dim} and {rhs.dim}")
        left_num, right_num = self.num, rhs.num
        if left_num.is_zero:
            return RationalExpr(left_num)
        if right_num.is_zero:
            return RationalExpr(right_num)
        if not self.den and not rhs.den:
            return RationalExpr(left_num * right_num)
        left_den, right_den = dict(self.den), dict(rhs.den)
        collected = dict(left_den)
        for form, mult in right_den.items():
            if form in left_den:
                collected[form] += mult
            else:
                left_num, collected[form] = _divide_out(left_num, form, mult)
        for form, mult in left_den.items():
            if form not in right_den:
                right_num, collected[form] = _divide_out(right_num, form, mult)
        return RationalExpr._reduced(left_num * right_num, collected, ())

    __rmul__ = __mul__

    def div_scalar(self, value: RationalLike) -> "RationalExpr":
        c = rat(value)
        if c == 0:
            raise ZeroDivisionError("division by zero scalar")
        return RationalExpr(self.num * (1 / c), self.den)

    def div_form(self, form: LinearForm) -> "RationalExpr":
        return self * RationalExpr.of_forms((), (form,), self.dim)

    # -- comparison -----------------------------------------------------

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self.num == rhs.num and self.den == rhs.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        num = self.num.render(names)
        if not self.den:
            return num
        factors = []
        for form, mult in self.den:
            base = f"({form.render(names)})"
            factors.append(base if mult == 1 else f"{base}^{mult}")
        return f"({num}) / ({'*'.join(factors)})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"RationalExpr({self.render()})"


def _monic(form: LinearForm) -> tuple[LinearForm, int, int]:
    """(monic, lead, den) with form == (lead/den) * monic for ints lead and
    den, lead the form's first nonzero numerator."""
    for lead in form._num:
        if lead:
            return LinearForm._canonical(form._num, lead), lead, form._den
    raise ZeroDivisionError("zero linear form in denominator")


def _divide_out(num: Polynomial, form: LinearForm, mult: int) -> tuple[Polynomial, int]:
    """Divide num by form as often as it goes, at most mult times; returns
    the quotient and the multiplicity left.  A constant num (nonzero, as
    every caller passes) returns at once: no linear form divides it."""
    while mult and any(num._num):
        quotient = num.divide_linear(form)
        if quotient is None:
            break
        num, mult = quotient, mult - 1
    return num, mult
