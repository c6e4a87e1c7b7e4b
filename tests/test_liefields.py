from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughflow import liefields
from roughflow.densitylab import yamato_fields
from roughflow.errors import DomainError, PreconditionError
from roughflow.liefields import (
    FAMILY_CACHE_SIZE,
    CompiledField,
    FieldFamily,
    Polynomial,
    PolyVectorField,
    augmented_jacobian_fields,
    bracket,
    bracket_table,
    constant_brackets,
    format_field_file,
    hormander_rank,
    is_nilpotent,
    iterated_bracket,
    parse_field_file,
    parse_polynomial,
    taylor_correction_fields,
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


def interpreted_monomials(z, x):
    """The evaluator's monomials before the plan (its oracle): 1.0 times x_k ** p per factor."""
    out = []
    for e in z.exponents.tolist():
        val = 1.0
        for k, p in enumerate(e):
            if p:
                val = val * x[k] ** p
        out.append(val)
    return out


def interpreted_sum(z, x, pairs, coef, rank):
    """The evaluator's sum before the plan: every pair multiplies its monomial."""
    x = np.asarray(x, dtype=float)
    mono = interpreted_monomials(z, x)
    m = z.exponents.shape[1]
    out = np.zeros((m,) * rank + np.broadcast_shapes(coef.shape[1:], x.shape[1:]))
    for (idx, q), c in zip(pairs, coef):
        out[idx] += c * mono[q]
    return out


#: Signed zeros, infinities, NaN and a tiny value, mixed into the test points.
SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300])


def special_points(rng, shape):
    """Normal draws, a third of them replaced by special values."""
    x = rng.standard_normal(shape)
    return np.where(rng.random(shape) < 1 / 3, rng.choice(SPECIAL_VALUES, size=shape), x)


def planned_table_fields(rng, n_fields):
    """Fields on R^3 whose table has the constant monomial, degree-1
    monomials, pure powers >= 2 and mixed monomials."""
    forced = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 3, 0), (2, 0, 0), (1, 1, 0), (2, 0, 1), (1, 2, 1)]
    fields = []
    for _ in range(n_fields):
        comps = []
        for _ in range(3):
            terms = {e: Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for e in forced if rng.random() < 0.7}
            comps.append(Polynomial(3, terms))
        fields.append(PolyVectorField(tuple(comps)))
    return fields


def assert_bitwise_equal(got, expect):
    assert got.shape == expect.shape
    assert np.array_equal(got, expect, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestMonomialPlan:
    @pytest.mark.parametrize("seed", range(6))
    def test_single_fields_bitwise_equal_to_interpreted_sum(self, seed):
        rng = np.random.default_rng(seed)
        fields = planned_table_fields(rng, 2)
        table = {tuple(e) for e in CompiledField.stack(fields).exponents.tolist()}
        assert {(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 1, 0)} <= table
        for fld in fields:
            z = fld.compiled  # coef rows without family axes
            for x in (special_points(rng, 3), special_points(rng, (3, 40))):
                assert_bitwise_equal(z(x), interpreted_sum(z, x, z.pairs, z.coef, 1))
                assert_bitwise_equal(z.jacobian(x), interpreted_sum(z, x, z.jac_pairs, z.jac_coef, 2))

    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_families_bitwise_equal_to_interpreted_sum(self, seed):
        rng = np.random.default_rng(100 + seed)
        fields = planned_table_fields(rng, 4)
        w = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.5], size=(4, 40))
        x = special_points(rng, (3, 40))
        stack = CompiledField.stack(fields)
        # The raw stack evaluates every field at every point: (m, 40, 4).
        for z, pts in ((stack, x[..., None]), (stack.weighted(w), x), (stack.weighted(w[:, 0]), x)):
            assert_bitwise_equal(z(pts), interpreted_sum(z, pts, z.pairs, z.coef, 1))
            assert_bitwise_equal(z.jacobian(pts), interpreted_sum(z, pts, z.jac_pairs, z.jac_coef, 2))
        assert stack.weighted(w).plan is stack.plan


#: The three families the FieldFamily oracle tests run on.
def dilation_family():
    grow = PolyVectorField((parse_polynomial("x1", 3), parse_polynomial("x2", 3), parse_polynomial("x3", 3)))
    e1 = PolyVectorField((parse_polynomial("1", 3), parse_polynomial("0", 3), parse_polynomial("0", 3)))
    return [grow, e1, PolyVectorField.zero(3)]


def nonconstant_pair():
    w1 = PolyVectorField((parse_polynomial("x1^2", 2), parse_polynomial("0", 2)))
    e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
    return [w1, e1]


ORACLE_FAMILIES = {"yamato": yamato_fields, "dilation": dilation_family, "nonconstant": nonconstant_pair}


def assert_same_compiled(got, expect):
    assert got.pairs == expect.pairs and got.jac_pairs == expect.jac_pairs and got.plan == expect.plan
    for a, b in ((got.exponents, expect.exponents), (got.coef, expect.coef), (got.jac_coef, expect.jac_coef)):
        assert np.array_equal(a, b)


class TestFieldFamily:
    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_members_match_per_call_exact_functions(self, name):
        fields = ORACLE_FAMILIES[name]()
        family = FieldFamily.of(fields)
        for n in (2, 3):
            assert family.nilpotent(n) == is_nilpotent(fields, n)
            assert family.constant_brackets(n) == constant_brackets(fields, n)
            assert dict(family.brackets(n)) == bracket_table(fields, n)
            assert list(family.brackets(n)) == list(bracket_table(fields, n))
            assert_same_compiled(family.bracket_stack(n), CompiledField.stack(list(bracket_table(fields, n).values())))
        corrections = [w for row in taylor_correction_fields(fields) for w in row]
        assert_same_compiled(family.davie_stack, CompiledField.stack(fields + corrections))
        aug = augmented_jacobian_fields(fields)
        assert family.augmented.fields == tuple(aug)
        aug_corrections = [w for row in taylor_correction_fields(aug) for w in row]
        assert_same_compiled(family.augmented.davie_stack, CompiledField.stack(aug + aug_corrections))

    def test_members_are_kept_and_read_only(self, yamato):
        family = FieldFamily.of(yamato)
        assert family.brackets(3) is family.brackets(3)
        assert family.davie_stack is family.davie_stack
        assert family.augmented is family.augmented
        assert isinstance(family.fields, tuple)
        with pytest.raises(TypeError):
            family.brackets(3)[(9,)] = yamato[0]
        for arr in (family.davie_stack.coef, family.davie_stack.jac_coef, family.bracket_stack(3).exponents):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_equal_content_shares_one_family(self):
        first, second = yamato_fields(), yamato_fields()
        assert first is not second
        family = FieldFamily.of(first)
        assert FieldFamily.of(second) is family
        assert FieldFamily.of(family) is family
        changed = yamato_fields()
        v3 = changed[2].components
        changed[2] = PolyVectorField((v3[0], v3[1], v3[2] * 3))
        other = FieldFamily.of(changed)
        assert other is not family and other.key != family.key

    @pytest.mark.parametrize("name", ["dilation", "nonconstant"])
    def test_failed_check_raises_on_every_call(self, name):
        family = FieldFamily.of(ORACLE_FAMILIES[name]())
        check, label = {
            "dilation": (family.require_nilpotent, "nilpotency"),
            "nonconstant": (family.require_constant_brackets, "constant brackets"),
        }[name]
        messages = []
        for _ in range(2):
            with pytest.raises(PreconditionError) as err:
                check(3)
            assert err.value.name == label
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_cache_keeps_the_most_recent_families(self):
        def constant(k):
            return [PolyVectorField.from_arrays(2, [k, 1000 + k])]

        kept = [FieldFamily.of(constant(k)) for k in range(FAMILY_CACHE_SIZE)]
        assert FieldFamily.of(constant(0)) is kept[0]  # now the most recent
        FieldFamily.of(constant(FAMILY_CACHE_SIZE))  # drops the least recent, k = 1
        assert len(liefields._FAMILIES) <= FAMILY_CACHE_SIZE
        assert FieldFamily.of(constant(0)) is kept[0]
        assert FieldFamily.of(constant(1)) is not kept[1]
        for k in range(FAMILY_CACHE_SIZE + 5, 2 * FAMILY_CACHE_SIZE + 5):
            FieldFamily.of(constant(k))
        assert len(liefields._FAMILIES) == FAMILY_CACHE_SIZE


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
