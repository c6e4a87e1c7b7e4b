from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughflow.densitylab import yamato_fields
from roughflow.errors import DomainError
from roughflow.liefields import (
    CompiledField,
    Polynomial,
    PolyVectorField,
    bracket,
    constant_brackets,
    format_field_file,
    hormander_rank,
    is_nilpotent,
    iterated_bracket,
    parse_field_file,
    parse_polynomial,
)


def random_field(m, deg, rng, density=0.4):
    comps = []
    for _ in range(m):
        terms = {}
        for e in iter_product(range(deg + 1), repeat=m):
            if sum(e) <= deg and rng.random() < density:
                terms[e] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        comps.append(Polynomial(m, terms))
    return PolyVectorField(tuple(comps))


@st.composite
def exact_field_and_point(draw):
    """A random exact field on R^m and a point of eighths (exact as floats)."""
    m = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 3)] * m)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    comps = tuple(
        Polynomial(m, draw(st.dictionaries(exponent, coeff, max_size=6))) for _ in range(m)
    )
    point = draw(st.lists(st.integers(-16, 16), min_size=m, max_size=m))
    return PolyVectorField(comps), [Fraction(k, 8) for k in point]


def exact_value_and_scale(poly, point):
    """Exact value at a rational point and the sum of the absolute terms."""
    value, scale = Fraction(0), Fraction(0)
    for e, c in poly.terms.items():
        term = c
        for xk, p in zip(point, e):
            term *= xk**p
        value += term
        scale += abs(term)
    return value, scale


class TestPolynomial:
    def test_arithmetic_and_diff(self):
        p = parse_polynomial("2*x1^2 - 3*x2 + 1/2", 2)
        q = parse_polynomial("x1*x2", 2)
        s = p * q
        assert s((1.0, 2.0)) == pytest.approx(p((1.0, 2.0)) * q((1.0, 2.0)))
        assert p.diff(0)((3.0, 0.0)) == pytest.approx(12.0)
        assert p.diff(1)((3.0, 0.0)) == pytest.approx(-3.0)

    def test_degree_and_predicates(self):
        assert parse_polynomial("0", 2).is_zero
        assert parse_polynomial("5", 2).degree == 0
        assert parse_polynomial("x1^3*x2", 2).degree == 4
        assert Polynomial.zero(3).degree == -1

    def test_batch_evaluation(self, rng):
        p = parse_polynomial("x1^2 - 2*x2", 2)
        xs = rng.standard_normal((10, 2))
        vals = p(xs)
        assert vals.shape == (10,)
        assert vals[3] == pytest.approx(xs[3, 0] ** 2 - 2 * xs[3, 1])

    def test_lift_preserves_values(self, rng):
        p = parse_polynomial("x1*x2 - 3", 2)
        lifted = p.lift(5, offset=1)
        x = rng.standard_normal(5)
        assert lifted(x) == pytest.approx(p(x[1:3]))

    def test_exact_rational_coefficients(self):
        p = parse_polynomial("1/3*x1", 1)
        q = p * 3
        assert q.terms[(1,)] == Fraction(1)


class TestCompiledField:
    @given(exact_field_and_point())
    @settings(max_examples=80, deadline=None)
    def test_values_and_jacobian_match_exact_evaluation(self, case):
        fld, point = case
        x = np.array([float(v) for v in point])
        vals, jac = fld(x), fld.jacobian_at(x)
        for i, comp in enumerate(fld.components):
            # Relative to the sum of absolute terms, so cancellation is fair.
            for got, poly in [(vals[i], comp)] + [(jac[i, l], comp.diff(l)) for l in range(fld.m)]:
                exact, scale = exact_value_and_scale(poly, point)
                assert abs(got - float(exact)) <= 1e-12 * float(scale)

    def test_family_axes_weight_the_fields(self, rng):
        fields = [random_field(2, 3, rng) for _ in range(3)]
        w = rng.standard_normal((3, 7))  # one weight vector per path
        x = rng.standard_normal((7, 2))  # one point per path
        z = CompiledField.stack(fields).weighted(w)
        # Oracle: the interpreted Polynomial evaluator and the exact partials.
        expect = sum(
            w[f][:, None] * np.stack([c(x) for c in fld.components], axis=-1)
            for f, fld in enumerate(fields)
        )
        jexpect = sum(
            w[f][:, None, None] * np.array([[d(x) for d in row] for row in fld.jacobian()]).transpose(2, 0, 1)
            for f, fld in enumerate(fields)
        )
        assert np.allclose(z(x.T).T, expect, rtol=1e-12, atol=1e-12)
        assert np.allclose(np.moveaxis(z.jacobian(x.T), -1, 0), jexpect, rtol=1e-12, atol=1e-12)

    def test_table_closed_under_partials(self, rng):
        z = CompiledField.stack([random_field(3, 3, rng)])
        table = [tuple(e) for e in z.exponents.tolist()]
        for _, q in z.pairs:
            e = table[q]
            for l, p in enumerate(e):
                if p:
                    assert e[:l] + (p - 1,) + e[l + 1 :] in table

    def test_compiled_once_on_first_use(self):
        fld = yamato_fields()[1]
        assert "_compiled" not in vars(fld)
        first = fld.compiled
        fld(np.zeros(3))
        fld.jacobian_at(np.zeros((4, 3)))
        assert fld.compiled is first

    def test_zero_field_evaluates_to_zero(self):
        z = PolyVectorField.zero(2)
        assert np.array_equal(z(np.ones((5, 2))), np.zeros((5, 2)))
        assert np.array_equal(z.jacobian_at(np.ones(2)), np.zeros((2, 2)))


class TestBracket:
    def test_self_bracket_vanishes(self, rng):
        v = random_field(2, 2, rng)
        assert bracket(v, v).is_zero

    def test_yamato_bracket_values(self, yamato):
        b = bracket(yamato[1], yamato[2])
        assert [str(c) for c in b.components] == ["0", "0", "-4"]
        assert bracket(b, yamato[1]).is_zero
        assert bracket(b, yamato[2]).is_zero

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DomainError):
            bracket(random_field(2, 1, rng), random_field(3, 1, rng))

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        v, w = random_field(2, 3, rng), random_field(2, 3, rng)
        assert (bracket(v, w) + bracket(w, v)).is_zero

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_jacobi_identity_exact(self, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (random_field(2, 3, rng) for _ in range(3))
        total = (
            bracket(u, bracket(v, w))
            + bracket(v, bracket(w, u))
            + bracket(w, bracket(u, v))
        )
        assert total.is_zero


class TestIteratedBracket:
    def test_length_one_is_field(self, yamato):
        assert iterated_bracket(yamato, (2,)) is yamato[1]

    def test_yamato_words(self, yamato):
        assert [str(c) for c in iterated_bracket(yamato, (2, 3)).components] == [
            "0",
            "0",
            "-4",
        ]
        assert iterated_bracket(yamato, (2, 3, 2)).is_zero
        assert iterated_bracket(yamato, (2, 3, 3)).is_zero

    def test_bad_word(self, yamato):
        with pytest.raises(DomainError):
            iterated_bracket(yamato, (4,))
        with pytest.raises(DomainError):
            iterated_bracket(yamato, ())


class TestHypothesisCheckers:
    def test_yamato_is_three_nilpotent(self, yamato):
        ok, witness = is_nilpotent(yamato, 3)
        assert ok and witness is None

    def test_yamato_not_two_nilpotent(self, yamato):
        ok, witness = is_nilpotent(yamato, 2)
        assert not ok
        assert witness == (2, 3)

    def test_single_field_trivially_nilpotent(self, rng):
        v = random_field(2, 2, rng)
        ok, _ = is_nilpotent([v], 2)
        assert ok

    def test_nilpotency_is_monotone_in_order(self, yamato):
        for n in (3, 4, 5):
            assert is_nilpotent(yamato, n)[0]

    def test_constant_brackets(self, yamato):
        assert constant_brackets(yamato, 3)
        v1 = PolyVectorField((parse_polynomial("x2", 2), parse_polynomial("0", 2)))
        v2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("1", 2)))
        assert constant_brackets([v1, v2], 2)
        # A genuinely nonconstant bracket: [w1, e1] has component -2 x1.
        w1 = PolyVectorField((parse_polynomial("x1^2", 2), parse_polynomial("0", 2)))
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        assert not constant_brackets([w1, e1], 2)

    def test_hormander_rank_yamato(self, yamato, rng):
        assert hormander_rank(yamato, [0.0, 0.0, 0.0], 2) == 3
        for _ in range(5):
            assert hormander_rank(yamato, rng.standard_normal(3), 2) == 3

    def test_hormander_rank_degenerate_cases(self, rng):
        assert hormander_rank([PolyVectorField.zero(2)], [0.0, 0.0], 2) == 0
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        e2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("1", 2)))
        assert hormander_rank([e1, e2], [0.0, 0.0], 1) == 2


class TestParsing:
    def test_field_file_round_trip(self, yamato):
        text = format_field_file(yamato)
        back = parse_field_file(text)
        assert len(back) == 3
        for original, parsed in zip(yamato, back):
            assert (original - parsed).is_zero

    def test_comments_and_blank_lines(self):
        text = """
        # a two-field family on the plane
        2 2

        x2   # shear
        0
        0    # second field
        1
        """
        fields = parse_field_file(text)
        assert len(fields) == 2
        assert str(fields[0].components[0]) == "1*x2"

    @pytest.mark.parametrize(
        "bad",
        ["", "2", "2 2\nx1", "1 1\nx2", "1 1\n2.5", "1 1\n2*", "1 1\n(x1"],
    )
    def test_malformed_files_rejected(self, bad):
        with pytest.raises(DomainError):
            parse_field_file(bad)

    def test_power_syntax_variants(self):
        a = parse_polynomial("x1^2", 1)
        b = parse_polynomial("x1**2", 1)
        c = parse_polynomial("x1*x1", 1)
        assert (a - b).is_zero and (a - c).is_zero
