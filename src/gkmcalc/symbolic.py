"""Exact multivariate polynomial and rational-form arithmetic over Q.

Everything in the package funnels through three value types:

* :class:`LinearForm` -- an element of g*, a coefficient vector over a fixed
  basis x_1, ..., x_n.  Edge weights, polarization projections and
  interpolation nodes are all linear forms.
* :class:`Polynomial` -- a sparse element of S(g*) with exact rational
  coefficients, canonical under the graded-lexicographic term order with
  x_1 > ... > x_n.
* :class:`RationalExpr` -- a polynomial divided by a multiset of linear
  forms.  Every denominator produced by the localization and path-weight
  formulas is a product of linear forms, so simplification is trial
  division rather than general multivariate gcd.

No floating point appears anywhere; coefficients are `fractions.Fraction`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionError, PolarizationError, ReductionError

Rational = Fraction
RationalLike = Union[Fraction, int, str]

Exponent = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, string "p/q" or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def rat_vector(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def format_rational(value: Fraction) -> str:
    """Canonical text for a rational: integers bare, otherwise "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def default_names(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


# ---------------------------------------------------------------------------
# linear forms


@dataclass(frozen=True)
class LinearForm:
    """A linear form sum_i c_i x_i with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(values: Iterable[RationalLike]) -> "LinearForm":
        return LinearForm(rat_vector(values))

    @staticmethod
    def zero(dim: int) -> "LinearForm":
        return LinearForm((ZERO,) * dim)

    @staticmethod
    def basis(index: int, dim: int) -> "LinearForm":
        """The coordinate form x_{index+1}."""
        return LinearForm(tuple(ONE if i == index else ZERO for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_dim(self, other: "LinearForm") -> None:
        if self.dim != other.dim:
            raise DimensionError(f"linear forms of dimension {self.dim} and {other.dim}")

    def __add__(self, other: "LinearForm") -> "LinearForm":
        self._check_dim(other)
        return LinearForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        self._check_dim(other)
        return LinearForm(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple(-a for a in self.coeffs))

    def scale(self, factor: RationalLike) -> "LinearForm":
        f = rat(factor)
        return LinearForm(tuple(f * a for a in self.coeffs))

    def pair(self, xi: Sequence[RationalLike]) -> Fraction:
        """Dual pairing of the form with a vector xi in g."""
        if len(xi) != self.dim:
            raise DimensionError(f"form of dimension {self.dim} paired with vector of length {len(xi)}")
        return sum((c * rat(x) for c, x in zip(self.coeffs, xi)), start=ZERO)

    def proportional(self, other: "LinearForm") -> bool:
        """True when one form is a rational multiple of the other (zero counts)."""
        self._check_dim(other)
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        ratio: Optional[Fraction] = None
        for a, b in zip(self.coeffs, other.coeffs):
            if a == 0 and b == 0:
                continue
            if a == 0 or b == 0:
                return False
            if ratio is None:
                ratio = a / b
            elif a != ratio * b:
                return False
        return True

    def normalized(self) -> tuple["LinearForm", Fraction]:
        """Return (monic form, scale) with self == scale * monic.

        "Monic" means the first nonzero coefficient is 1; used to key
        denominator multisets so that scalar multiples merge.
        """
        for c in self.coeffs:
            if c != 0:
                return self.scale(1 / c), c
        raise ValueError("cannot normalize the zero form")

    def as_polynomial(self) -> "Polynomial":
        terms = {}
        n = self.dim
        for i, c in enumerate(self.coeffs):
            if c != 0:
                expo = tuple(1 if j == i else 0 for j in range(n))
                terms[expo] = c
        return Polynomial(n, terms)

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        return self.as_polynomial().render(names)

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# polynomials

# raw term-dict helpers; dicts map exponent tuples to nonzero Fractions


def _add_into(target: dict, source: dict) -> None:
    for expo, coeff in source.items():
        acc = target.get(expo)
        if acc is None:
            target[expo] = coeff
        else:
            acc = acc + coeff
            if acc == 0:
                del target[expo]
            else:
                target[expo] = acc


def _mul_dicts(d1: dict, d2: dict) -> dict:
    if len(d1) > len(d2):
        d1, d2 = d2, d1
    out: dict = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            acc = out.get(expo)
            if acc is None:
                out[expo] = c1 * c2
            else:
                acc = acc + c1 * c2
                if acc == 0:
                    del out[expo]
                else:
                    out[expo] = acc
    return out


def _grlex_key(expo: Exponent) -> tuple:
    return (sum(expo), expo)


class Polynomial:
    """Sparse polynomial in S(g*) with exact rational coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Optional[dict] = None):
        self.dim = dim
        self.terms: dict = {} if terms is None else terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial(dim)

    @staticmethod
    def constant(value: RationalLike, dim: int) -> "Polynomial":
        c = rat(value)
        if c == 0:
            return Polynomial(dim)
        return Polynomial(dim, {(0,) * dim: c})

    @staticmethod
    def one(dim: int) -> "Polynomial":
        return Polynomial.constant(1, dim)

    @staticmethod
    def variable(index: int, dim: int) -> "Polynomial":
        expo = tuple(1 if i == index else 0 for i in range(dim))
        return Polynomial(dim, {expo: ONE})

    @staticmethod
    def product_of_forms(forms: Iterable[LinearForm], dim: int) -> "Polynomial":
        result = Polynomial.one(dim)
        for form in forms:
            result = result * form
        return result

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self) -> Optional[int]:
        """The common total degree of all terms, or None if inhomogeneous.

        The zero polynomial is homogeneous of every degree; returns -1.
        """
        degrees = {sum(e) for e in self.terms}
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

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, rhs.terms)
        return Polynomial(self.dim, out)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs + (-self)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dim, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                return Polynomial(self.dim)
            return Polynomial(self.dim, {e: c * v for e, v in self.terms.items()})
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return Polynomial(self.dim, _mul_dicts(self.terms, rhs.terms))

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
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.dim)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.terms.items())))

    # -- evaluation and substitution -------------------------------------

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Evaluate at a rational point."""
        if len(point) != self.dim:
            raise DimensionError(f"point of length {len(point)} for dimension {self.dim}")
        values = rat_vector(point)
        total = ZERO
        for expo, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, expo):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute(self, forms: Sequence[LinearForm]) -> "Polynomial":
        """Ring homomorphism sending x_i to forms[i]."""
        if len(forms) != self.dim:
            raise DimensionError("substitution needs one form per variable")
        if not self.terms:
            target_dim = forms[0].dim if forms else self.dim
            return Polynomial.zero(target_dim)
        target_dim = forms[0].dim
        images = [f.as_polynomial() for f in forms]
        # cache powers of each image up to the degree actually used
        max_pow = [0] * self.dim
        for expo in self.terms:
            for i, e in enumerate(expo):
                max_pow[i] = max(max_pow[i], e)
        powers: list[list[Polynomial]] = []
        for i in range(self.dim):
            row = [Polynomial.one(target_dim)]
            for _ in range(max_pow[i]):
                row.append(row[-1] * images[i])
            powers.append(row)
        out: dict = {}
        for expo, coeff in self.terms.items():
            term = Polynomial.constant(coeff, target_dim)
            for i, e in enumerate(expo):
                if e:
                    term = term * powers[i][e]
            _add_into(out, term.terms)
        return Polynomial(target_dim, out)

    def directional_derivative(self, xi: Sequence[RationalLike]) -> "Polynomial":
        """Derivative along the vector xi; zero iff the value lies in S(g*_xi)."""
        values = rat_vector(xi)
        if len(values) != self.dim:
            raise DimensionError("direction vector has wrong length")
        out: dict = {}
        for expo, coeff in self.terms.items():
            for i, e in enumerate(expo):
                if e and values[i] != 0:
                    lowered = list(expo)
                    lowered[i] -= 1
                    _add_into(out, {tuple(lowered): coeff * e * values[i]})
        return Polynomial(self.dim, out)

    # -- division ---------------------------------------------------------

    def divide_linear(self, form: LinearForm) -> Optional["Polynomial"]:
        """Exact quotient self/form, or None when form does not divide self."""
        if form.is_zero:
            raise ValueError("division by the zero form")
        if form.dim != self.dim:
            raise DimensionError("divisor dimension mismatch")
        if not self.terms:
            return Polynomial.zero(self.dim)
        j = next(i for i, c in enumerate(form.coeffs) if c != 0)
        c = form.coeffs[j]
        rest = {}
        for i, a in enumerate(form.coeffs):
            if i != j and a != 0:
                expo = tuple(1 if k == i else 0 for k in range(self.dim))
                rest[expo] = a
        # split self into slices by the exponent of x_j
        slices: dict[int, dict] = {}
        for expo, coeff in self.terms.items():
            k = expo[j]
            flat = expo[:j] + (0,) + expo[j + 1 :]
            slices.setdefault(k, {})[flat] = coeff
        top = max(slices)
        if top == 0:
            return None  # self is free of x_j but form is not
        inv_c = 1 / c
        quotient_slices: dict[int, dict] = {}
        carry: dict = {}  # B_k during the downward sweep
        for k in range(top, 0, -1):
            a_k = dict(slices.get(k, {}))
            if carry:
                _add_into(a_k, {e: -v for e, v in _mul_dicts(rest, carry).items()})
            b = {e: v * inv_c for e, v in a_k.items()}
            if b:
                quotient_slices[k - 1] = b
            carry = b
        remainder = dict(slices.get(0, {}))
        if carry:
            _add_into(remainder, {e: -v for e, v in _mul_dicts(rest, carry).items()})
        if remainder:
            return None
        out: dict = {}
        for k, slice_terms in quotient_slices.items():
            for expo, coeff in slice_terms.items():
                lifted = expo[:j] + (k,) + expo[j + 1 :]
                out[lifted] = coeff
        return Polynomial(self.dim, out)

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        """Canonical text: graded-lex term order, rationals as p/q."""
        if not self.terms:
            return "0"
        if names is None:
            names = default_names(self.dim)
        pieces: list[str] = []
        for index, (expo, coeff) in enumerate(self.sorted_terms()):
            factors = []
            for name, e in zip(names, expo):
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


def rho_form(form: LinearForm, edge_weight: LinearForm, xi: Sequence[RationalLike]) -> LinearForm:
    """Project a linear form into the annihilator of xi along an edge weight.

    rho_e(alpha) = alpha - (alpha(xi)/alpha_e(xi)) * alpha_e.  Orientation
    of the edge does not matter: negating the weight leaves rho unchanged.
    """
    denom = edge_weight.pair(xi)
    if denom == 0:
        raise PolarizationError(f"edge weight {edge_weight} pairs to zero with xi")
    return form - edge_weight.scale(form.pair(xi) / denom)


def rho_poly(poly: Polynomial, edge_weight: LinearForm, xi: Sequence[RationalLike]) -> Polynomial:
    """Extend rho_e multiplicatively to S(g*); a ring homomorphism."""
    denom = edge_weight.pair(xi)
    if denom == 0:
        raise PolarizationError(f"edge weight {edge_weight} pairs to zero with xi")
    values = rat_vector(xi)
    n = poly.dim
    forms = []
    for i in range(n):
        base = LinearForm.basis(i, n)
        forms.append(base - edge_weight.scale(values[i] / denom))
    return poly.substitute(forms)


# ---------------------------------------------------------------------------
# rational expressions with linear-form denominators


DenFactor = tuple[LinearForm, int]


class RationalExpr:
    """A quotient num / prod_i f_i^{m_i} with linear-form denominators.

    Instances are canonical: denominator factors are monic, sorted, and no
    factor divides the numerator (the polynomial ring is a UFD and linear
    forms are prime, so structural equality is mathematical equality).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: tuple[DenFactor, ...] = ()):
        self.num = num
        self.den = den

    @staticmethod
    def make(num: Polynomial, factors: Iterable[Union[LinearForm, DenFactor]] = ()) -> "RationalExpr":
        """Build and canonicalize; `factors` may repeat and need not be monic."""
        collected: dict[LinearForm, int] = {}
        scale = ONE
        for item in factors:
            if isinstance(item, LinearForm):
                form, mult = item, 1
            else:
                form, mult = item
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError("denominator multiplicities must be positive")
            if form.is_zero:
                raise ZeroDivisionError("zero linear form in denominator")
            monic, s = form.normalized()
            collected[monic] = collected.get(monic, 0) + mult
            scale *= s**mult
        if num.is_zero:
            return RationalExpr(num, ())
        num = num * (1 / scale)
        return RationalExpr._reduced(num, collected)

    @staticmethod
    def _reduced(num: Polynomial, collected: dict[LinearForm, int]) -> "RationalExpr":
        if num.is_zero:
            return RationalExpr(num, ())
        for form in list(collected):
            while collected[form] > 0:
                quotient = num.divide_linear(form)
                if quotient is None:
                    break
                num = quotient
                collected[form] -= 1
            if collected[form] == 0:
                del collected[form]
        den = tuple(sorted(collected.items(), key=lambda kv: kv[0].coeffs))
        return RationalExpr(num, den)

    @staticmethod
    def from_polynomial(poly: Polynomial) -> "RationalExpr":
        return RationalExpr(poly, ())

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

    def den_dict(self) -> dict[LinearForm, int]:
        return dict(self.den)

    def den_polynomial(self) -> Polynomial:
        return Polynomial.product_of_forms(
            itertools.chain.from_iterable([f] * m for f, m in self.den), self.dim
        )

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "RationalExpr":
        if isinstance(other, RationalExpr):
            return other
        if isinstance(other, Polynomial):
            return RationalExpr.from_polynomial(other)
        if isinstance(other, LinearForm):
            return RationalExpr.from_polynomial(other.as_polynomial())
        if isinstance(other, (int, Fraction)):
            return RationalExpr.from_polynomial(Polynomial.constant(other, self.dim))
        return NotImplemented

    def __add__(self, other) -> "RationalExpr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return rhs
        if rhs.is_zero:
            return self
        left_den = self.den_dict()
        right_den = rhs.den_dict()
        common: dict[LinearForm, int] = dict(left_den)
        for form, mult in right_den.items():
            common[form] = max(common.get(form, 0), mult)
        left_num = self.num
        right_num = rhs.num
        for form, mult in common.items():
            missing = mult - left_den.get(form, 0)
            if missing:
                left_num = left_num * Polynomial.product_of_forms([form] * missing, self.dim)
            missing = mult - right_den.get(form, 0)
            if missing:
                right_num = right_num * Polynomial.product_of_forms([form] * missing, self.dim)
        return RationalExpr._reduced(left_num + right_num, common)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalExpr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr(-self.num, self.den)

    def __mul__(self, other) -> "RationalExpr":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                return RationalExpr.zero(self.dim)
            return RationalExpr(self.num * c, self.den)
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        collected = self.den_dict()
        for form, mult in rhs.den:
            collected[form] = collected.get(form, 0) + mult
        return RationalExpr._reduced(self.num * rhs.num, collected)

    __rmul__ = __mul__

    def div_scalar(self, value: RationalLike) -> "RationalExpr":
        c = rat(value)
        if c == 0:
            raise ZeroDivisionError("division by zero scalar")
        return RationalExpr(self.num * (1 / c), self.den)

    def div_form(self, form: LinearForm) -> "RationalExpr":
        return RationalExpr.make(self.num, list(_expand_den(self.den)) + [form])

    def div_forms(self, forms: Iterable[LinearForm]) -> "RationalExpr":
        return RationalExpr.make(self.num, list(_expand_den(self.den)) + list(forms))

    # -- comparison -----------------------------------------------------

    def equals(self, other) -> bool:
        """Mathematical equality via cross-multiplication."""
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self.num * rhs.den_polynomial() == rhs.num * self.den_polynomial()

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self.num == rhs.num and self.den == rhs.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def reduce(self) -> "RationalExpr":
        """Re-run trial division; idempotent because construction reduces."""
        return RationalExpr._reduced(self.num, self.den_dict())

    def degree(self) -> Optional[int]:
        """Homogeneous degree (numerator degree minus denominator degree)."""
        top = self.num.homogeneous_degree()
        if top is None:
            return None
        if top < 0:
            return top
        return top - sum(m for _, m in self.den)

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


def _expand_den(den: tuple[DenFactor, ...]):
    for form, mult in den:
        for _ in range(mult):
            yield form
