from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc.builders import build_graph, load_graph, permutahedron
from gkmcalc.errors import FormatError
from gkmcalc.render import (
    basis_renderer,
    layout_table,
    parse_polynomial,
    root_basis_names,
    to_root_basis,
)
from gkmcalc.symbolic import LinearForm, Polynomial, default_names, format_rational

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
exponents3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


def build_poly(d):
    return Polynomial(3, {e: c for e, c in d.items() if c != 0})


polys3 = st.dictionaries(exponents3, rationals, max_size=6).map(build_poly)

# polynomial-like text in two variables: names known and unknown, numerals,
# operators, whitespace, stray characters, exponents past the packed range
# (2**15 - 1) and a numeral past int()'s digit limit
polynomial_texts = st.lists(
    st.one_of(
        st.sampled_from(
            ["x1", "x2", "x3", "a1", "y", "+", "-", "*", "^", "/", " ", "\t", "\n"]
            + ["(", ")", ".", ",", "e", "_", "**", "é", "1e5", "9" * 5000]
        ),
        st.integers(0, 10**6).map(str),
        st.integers(2**15 - 2, 10**9).map("^{}".format),
    ),
    max_size=25,
).map("".join)


class TestParseRoundTrip:
    @given(polys3)
    @settings(max_examples=150, deadline=None)
    def test_parse_inverts_render(self, poly):
        names = default_names(3)
        assert parse_polynomial(poly.render(names), names) == poly

    def test_zero(self):
        assert parse_polynomial("0", default_names(2)).is_zero

    def test_explicit_forms(self):
        names = ("a1", "a2")
        parsed = parse_polynomial("-a1^2*a2 + 3/4*a1 - 2", names)
        expected = Polynomial(
            2,
            {
                (2, 1): Fraction(-1),
                (1, 0): Fraction(3, 4),
                (0, 0): Fraction(-2),
            },
        )
        assert parsed == expected

    def test_unknown_variable_rejected(self):
        with pytest.raises(FormatError):
            parse_polynomial("z1 + 1", ("x1", "x2"))

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            parse_polynomial("x1 + + 2", ("x1",))

    @pytest.mark.parametrize("text", ["", "x1 +", "x1*", "x1**x2", "x1 x2", "3x1"])
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            parse_polynomial(text, ("x1", "x2"))

    @pytest.mark.parametrize("prefix", ["", "1/", "x1^"])
    def test_numeral_past_the_digit_limit_rejected(self, prefix):
        # int() refuses more than 4,300 digits with a bare ValueError
        with pytest.raises(FormatError, match="numeral too long"):
            parse_polynomial(prefix + "9" * 5000, ("x1", "x2"))

    @given(polynomial_texts)
    @settings(max_examples=400, deadline=None)
    def test_text_is_rejected_or_round_trips(self, text):
        names = ("x1", "x2")
        try:
            poly = parse_polynomial(text, names)
        except (FormatError, OverflowError):
            return
        assert parse_polynomial(poly.render(names), names) == poly


def fraction_view_to_root_basis(poly):
    """to_root_basis through the {exponent tuple: Fraction} view: the
    reference for the packed-key kernel."""
    n = poly.dim
    coordinates = [LinearForm([1] * (k + 1) + [0] * (n - 1 - k)) for k in range(n)]
    dropped = {}
    for expo, coeff in poly.substitute(coordinates).terms.items():
        if expo[0] != 0:
            raise FormatError("polynomial is not in the span of the simple roots")
        dropped[expo[1:]] = coeff
    return Polynomial(n - 1, dropped)


def fraction_view_render(poly, names):
    """Polynomial.render through the Fraction view, sorted by exponent
    tuples: the reference for rendering from packed keys."""
    if not poly.terms:
        return "0"
    pieces = []
    terms = sorted(poly.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    for index, (expo, coeff) in enumerate(terms):
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


@st.composite
def polys_and_root_images(draw):
    """A polynomial in n variables, and its image under a_i -> e_{i+1} - e_i
    in n + 1 coordinates, which lies in the root subring."""
    n = draw(st.integers(1, 3))
    expo = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    poly = Polynomial(n, draw(st.dictionaries(expo, rationals, max_size=5)))
    roots = [LinearForm([0] * i + [-1, 1] + [0] * (n - 1 - i)) for i in range(n)]
    return poly, poly.substitute(roots)


class TestPackedKernels:
    @given(polys_and_root_images(), polys3)
    @settings(max_examples=150, deadline=None)
    def test_to_root_basis_matches_fraction_view(self, case, other):
        poly, image = case
        assert to_root_basis(image) == fraction_view_to_root_basis(image) == poly
        try:
            want = fraction_view_to_root_basis(other)
        except FormatError:
            with pytest.raises(FormatError):
                to_root_basis(other)
        else:
            assert to_root_basis(other) == want

    @given(polys_and_root_images(), polys3)
    @settings(max_examples=150, deadline=None)
    def test_render_matches_fraction_view(self, case, other):
        for poly in (*case, other):
            names = default_names(poly.dim)
            assert poly.render(names) == fraction_view_render(poly, names)


class TestRootBasis:
    def test_simple_roots_map_to_generators(self):
        a1 = LinearForm([-1, 1, 0]).as_polynomial()
        a2 = LinearForm([0, -1, 1]).as_polynomial()
        assert to_root_basis(a1).render(root_basis_names(3)) == "a1"
        assert to_root_basis(a2).render(root_basis_names(3)) == "a2"
        product = to_root_basis(a1 * a2 + a2 * a2)
        assert product.render(root_basis_names(3)) == "a1*a2 + a2^2"

    def test_non_root_polynomial_rejected(self):
        with pytest.raises(FormatError):
            to_root_basis(LinearForm.basis(0, 3).as_polynomial())

    def test_constants_pass_through(self):
        converted = to_root_basis(Polynomial.constant(Fraction(5, 2), 3))
        assert converted == Polynomial.constant(Fraction(5, 2), 2)

    def test_auto_basis_picks_roots_for_flag(self):
        names, convert = basis_renderer(permutahedron(3), "auto")
        assert names == ("a1", "a2")
        a1 = LinearForm([-1, 1, 0]).as_polynomial()
        assert convert(a1).render(names) == "a1"

    def test_auto_basis_on_complete_graph_and_square(self, data_dir):
        # the weights x_i - x_j of K_5 sum to zero, those of the square with
        # a diagonal (-x2, -x1, -2*x1 - 2*x2, ...) do not
        names, _ = basis_renderer(build_graph("complete:5"), "auto")
        assert names == ("a1", "a2", "a3", "a4")
        graph = load_graph(data_dir / "square_diagonal.graph")
        names, convert = basis_renderer(graph, "auto")
        assert names is None
        poly = LinearForm.basis(0, graph.dimension).as_polynomial()
        assert convert(poly) is poly

    def test_auto_basis_builds_no_fraction_view(self, monkeypatch):
        # the sum-zero test pairs each weight with (1, ..., 1) on its int
        # numerators; a Fraction view of every weight cost more per command
        # than building the graph
        graph = build_graph("permutahedron:4")

        def refuse(self):
            raise AssertionError("a Fraction view of a weight was built")

        monkeypatch.setattr(LinearForm, "coeffs", property(refuse))
        names, _ = basis_renderer(graph, "auto")
        assert names == ("a1", "a2", "a3")

    def test_auto_basis_tests_each_distinct_weight_once(self, monkeypatch):
        # permutahedron:4 has 144 oriented edges and 12 distinct weights
        paired = []
        pair = LinearForm.pair
        monkeypatch.setattr(LinearForm, "pair", lambda form, xi: paired.append(form) or pair(form, xi))
        names, _ = basis_renderer(permutahedron(4), "auto")
        assert names == ("a1", "a2", "a3")
        assert len(paired) <= 12

    def test_bad_basis_rejected(self):
        with pytest.raises(FormatError):
            basis_renderer(permutahedron(3), "cartan")


class TestLayout:
    def test_fixed_width_alignment(self):
        table = layout_table(["v", "value"], [["a", "1"], ["bb", "-a1 - a2"]])
        lines = table.splitlines()
        assert lines[0].startswith("v ")
        assert all("|" in line for line in lines if "-+-" not in line)
        assert lines[1].count("-+-") == 1
