"""Text rendering and parsing helpers shared by the CLI and golden tests.

Polynomials print in the canonical graded-lex form defined in `symbolic`;
this module adds the simple-root basis used for flag-variety tables, a
parser that inverts the canonical rendering, and fixed-width table layout.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import FormatError
from .graph import GkmGraph
from .symbolic import LinearForm, Polynomial


def root_basis_names(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(1, n))


@functools.lru_cache(maxsize=16)
def _coordinates_in_roots(n: int) -> tuple[LinearForm, ...]:
    """e_1 -> 0 and e_k -> a_1 + ... + a_{k-1}, as forms in the n - 1 roots."""
    return tuple(LinearForm([1] * k + [0] * (n - 1 - k)) for k in range(n))


def to_root_basis(poly: Polynomial) -> Polynomial:
    """Rewrite a polynomial in e_1..e_n in the simple roots a_i = e_{i+1}-e_i.

    Only polynomials generated by differences of coordinates lie in the root
    subring, those with zero derivative along (1, ..., 1); anything else
    raises.  On that subring e_1 may be set to zero, which leaves
    e_k = a_1 + ... + a_{k-1}.
    """
    n = poly.dim
    if not poly.directional_derivative((1,) * n).is_zero:
        raise FormatError("polynomial is not in the span of the simple roots")
    return poly.substitute(_coordinates_in_roots(n))


def basis_renderer(graph: GkmGraph, basis: str):
    """Return (names, converter) for rendering polynomials on a graph.

    basis 'x' renders coordinates directly; 'roots' rewrites in simple
    roots; 'auto' picks roots exactly when every weight is a sum-zero form
    (the flag-variety convention), else coordinates.
    """
    if basis == "auto":
        ones = (1,) * graph.dimension
        weights = {edge.weight for edge in graph.edges}  # each distinct weight tested once
        sum_zero = graph.dimension >= 2 and bool(weights) and not any(w.pair(ones) for w in weights)
        basis = "roots" if sum_zero else "x"
    if basis == "x":
        return None, lambda poly: poly
    if basis == "roots":
        return root_basis_names(graph.dimension), to_root_basis
    raise FormatError(f"unknown basis {basis!r}; use x, roots or auto")


_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<rational>\d+(?:/\d+)?)|(?P<name>[A-Za-z]\w*)"
    r"(?:\^(?P<power>\d+))?|(?P<star>\*))"
)


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """Parse the canonical polynomial rendering back into a polynomial.

    The text is an optional sign and then terms joined by '+' or '-'; a term
    is factors joined by '*'; a factor is a rational p or p/q, or a variable
    with an optional ^power; the polynomial has one variable per name.
    Anything else raises FormatError.
    """
    dim = len(names)
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    total: dict = {}
    coeff, expo = Fraction(1), [0] * dim
    expect_factor = True
    position = 0

    def fail(problem: str) -> FormatError:
        return FormatError(f"{problem} in polynomial {text!r} at position {position}")

    def add_term() -> None:
        key = tuple(expo)
        value = total.get(key, Fraction(0)) + coeff
        if value == 0:
            total.pop(key, None)
        else:
            total[key] = value

    while position < len(text):
        match = _TOKEN.match(text, position)
        if not match:
            raise fail("unexpected character")
        if match["sign"]:
            if expect_factor and position > 0:
                raise fail("missing term")
            if not expect_factor:
                add_term()
            coeff, expo = Fraction(1 if match["sign"] == "+" else -1), [0] * dim
            expect_factor = True
        elif match["star"]:
            if expect_factor:
                raise fail("missing factor")
            expect_factor = True
        else:
            if not expect_factor:
                raise fail("missing '*'")
            if match["name"] and match["name"] not in index:
                raise FormatError(f"unknown variable {match['name']!r} in polynomial {text!r}")
            try:
                if match["rational"]:
                    coeff *= Fraction(match["rational"])
                else:
                    expo[index[match["name"]]] += int(match["power"] or 1)
            except ZeroDivisionError:
                raise fail("zero denominator") from None
            except ValueError:  # past the interpreter's limit on digits read by int()
                raise fail("numeral too long") from None
            expect_factor = False
        position = match.end()
    if expect_factor:
        raise fail("unexpected end")
    add_term()
    return Polynomial(dim, total)


def layout_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width table with a header rule; deterministic for golden files.
    The CLI writes the same lines one at a time (_layout_lines); this joined
    form is what perfbench/make_reference.py rebuilds its tables with."""
    return "\n".join(_layout_lines(headers, rows))


def _layout_lines(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> Iterator[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
    yield fmt(headers)
    yield "-+-".join("-" * width for width in widths)
    for row in rows:
        yield fmt(row)
