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
    bracket,
    cotangent_fields,
    dependency_levels,
    flow_certificate,
    format_field_file,
    hormander_rank,
    parse_field_file,
    parse_polynomial,
    taylor_correction_fields,
)

from helpers import (
    augmented,
    augmented_jacobian_fields,
    bracket_loop,
    bracket_table,
    chain_family,
    constant_brackets,
    constant_brackets_loop,
    cotangent_fields_loop,
    evaluate,
    field_sum,
    is_nilpotent,
    is_nilpotent_loop,
    jacobian,
    sheared_yamato,
    taylor_correction_fields_loop,
    triangular_families,
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
        assert evaluate(s, (1.0, 2.0)) == pytest.approx(evaluate(p, (1.0, 2.0)) * evaluate(q, (1.0, 2.0)))
        assert evaluate(p.diff(0), (3.0, 0.0)) == pytest.approx(12.0)
        assert evaluate(p.diff(1), (3.0, 0.0)) == pytest.approx(-3.0)

    def test_degree_and_predicates(self):
        assert parse_polynomial("0", 2).is_zero
        assert parse_polynomial("5", 2).degree == 0
        assert parse_polynomial("x1^3*x2", 2).degree == 4
        assert Polynomial.zero(3).degree == -1

    def test_batch_evaluation(self, rng):
        p = parse_polynomial("x1^2 - 2*x2", 2)
        xs = rng.standard_normal((10, 2))
        vals = evaluate(p, xs)
        assert vals.shape == (10,)
        assert vals[3] == pytest.approx(xs[3, 0] ** 2 - 2 * xs[3, 1])

    def test_lift_preserves_values(self, rng):
        p = parse_polynomial("x1*x2 - 3", 2)
        lifted = p.lift(5, offset=1)
        x = rng.standard_normal(5)
        assert evaluate(lifted, x) == pytest.approx(evaluate(p, x[1:3]))

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
            w[f][:, None] * np.stack([evaluate(c, x) for c in fld.components], axis=-1)
            for f, fld in enumerate(fields)
        )
        jexpect = sum(
            w[f][:, None, None] * np.array([[evaluate(d, x) for d in row] for row in jacobian(fld)]).transpose(2, 0, 1)
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
    assert got.levels == expect.levels
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
        aug_corrections = [w for row in taylor_correction_fields(aug) for w in row]
        assert_same_compiled(augmented(family).davie_stack, CompiledField.stack(aug + aug_corrections))

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_cotangent_lift_is_the_y_block_and_one_inverse_row(self, name):
        fields = ORACLE_FAMILIES[name]()
        family = FieldFamily.of(fields)
        m = family.m
        lift = family.cotangent
        assert lift is family.cotangent
        assert lift.fields == tuple(cotangent_fields(fields))
        assert lift.m == 2 * m and lift.d == family.d
        aug = augmented_jacobian_fields(fields)
        for v, v_lift, v_aug in zip(fields, lift.fields, aug):
            assert v_lift.components[:m] == tuple(c.lift(2 * m) for c in v.components)
            # w_b is row a of the J^{-1} block with J^{-1}_{al} renamed w_l.
            for a in range(m):
                start = m + m * m + a * m
                for b in range(m):
                    terms = v_aug.components[start + b].terms
                    assert all(sum(e) == sum(e[:m]) + sum(e[start : start + m]) for e in terms)
                    moved = {e[:m] + e[start : start + m]: c for e, c in terms.items()}
                    assert v_lift.components[m + b].terms == moved

    @pytest.mark.parametrize("name, n", [("yamato", 3), ("chain", 4)])
    def test_each_bracket_word_is_built_once(self, name, n, monkeypatch):
        fields = {"yamato": yamato_fields, "chain": chain_family}[name]()
        family = FieldFamily(tuple(fields), f"spy-{name}")  # a fresh family, not the kept one
        calls = []
        kernel = liefields._derivative_sum
        monkeypatch.setattr(liefields, "_derivative_sum", lambda terms: calls.append(terms) or kernel(terms))
        family.nilpotent(n)
        family.constant_brackets(n)
        family.brackets(n)
        family.bracket_stack(n)
        hormander_rank(family, np.zeros(family.m), n)
        table = family.brackets(n + 1)
        # Each kernel call is the bracket [V_w, V_i] of one word w + (i,), read back by identity.
        word = {id(b): w for w, b in table.items()}
        letter = {id(v): i for i, v in enumerate(fields, 1)}
        built = [word[id(terms[0][1])] + (letter[id(terms[0][2])],) for terms in calls]
        assert len(built) == len(set(built))
        assert set(built) == {w + (i,) for w in table if len(w) < n for i in range(1, len(fields) + 1)}

    @pytest.mark.parametrize("name", [*sorted(ORACLE_FAMILIES), "chain", "sheared"])
    def test_derived_fields_equal_the_loop_versions(self, name):
        fields = {**ORACLE_FAMILIES, "chain": chain_family, "sheared": sheared_yamato}[name]()
        assert taylor_correction_fields(fields) == taylor_correction_fields_loop(fields)
        assert cotangent_fields(fields) == cotangent_fields_loop(fields)

    def test_members_are_kept_and_read_only(self, yamato):
        family = FieldFamily.of(yamato)
        assert family.brackets(3) is family.brackets(3)
        assert family.davie_stack is family.davie_stack
        assert family.cotangent is family.cotangent
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
            return [PolyVectorField((Polynomial.constant(2, k), Polynomial.constant(2, 1000 + k)))]

        kept = [FieldFamily.of(constant(k)) for k in range(FAMILY_CACHE_SIZE)]
        assert FieldFamily.of(constant(0)) is kept[0]  # now the most recent
        FieldFamily.of(constant(FAMILY_CACHE_SIZE))  # drops the least recent, k = 1
        assert len(liefields._FAMILIES) <= FAMILY_CACHE_SIZE
        assert FieldFamily.of(constant(0)) is kept[0]
        assert FieldFamily.of(constant(1)) is not kept[1]
        for k in range(FAMILY_CACHE_SIZE + 5, 2 * FAMILY_CACHE_SIZE + 5):
            FieldFamily.of(constant(k))
        assert len(liefields._FAMILIES) == FAMILY_CACHE_SIZE



def _field(*components: str) -> PolyVectorField:
    return PolyVectorField(tuple(parse_polynomial(c, len(components)) for c in components))


class TestBracketOracle:
    """``bracket`` skips zero and absent terms, and the checks read the bracket
    table; the full (i, l) loop and the per-word rebuild are their oracles."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bracket_matches_full_loop(self, seed):
        rng = np.random.default_rng(seed)
        m = 1 + seed % 3
        fields = [random_field(m, 2, rng, density) for density in (0.0, 0.2, 0.5)]
        for v in fields:
            for w in fields:
                got, want = bracket(v, w), bracket_loop(v, w)
                assert got == want
                assert format_field_file([got]) == format_field_file([want])

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_checks_match_per_word_loops(self, name):
        fields = ORACLE_FAMILIES[name]()
        for n in (2, 3, 4):
            assert is_nilpotent(fields, n) == is_nilpotent_loop(fields, n)
            assert constant_brackets(fields, n) == constant_brackets_loop(fields, n)
            assert FieldFamily.of(fields).nilpotent(n) == is_nilpotent_loop(fields, n)
            assert FieldFamily.of(fields).constant_brackets(n) == constant_brackets_loop(fields, n)

    def test_augmented_yamato_is_certified_exactly(self):
        aug = augmented_jacobian_fields(yamato_fields())
        for v in aug:
            assert bracket(aug[0], v) == bracket_loop(aug[0], v)
        family = FieldFamily.of(aug)
        assert family.nilpotent(3) == is_nilpotent_loop(aug, 3) == (True, None)
        assert family.nilpotent(2) == is_nilpotent_loop(aug, 2)
        assert not family.nilpotent(2)[0]


class TestFlowCertificate:
    def test_yamato_degree_two_depth_two(self, yamato):
        family = FieldFamily.of(yamato)
        assert family.flow_certificate(3) == (2, 2)
        assert family.flow_certificate(3) is family.flow_certificate(3)
        # The brackets as a family of their own carry the same certificate at n = 2.
        assert FieldFamily.of(list(family.brackets(3).values())).flow_certificate(2) == (2, 2)

    def test_quadratic_shear_at_order_four(self):
        # Brackets: d/dx1, x1^2 d/dx2, 2 x1 d/dx2, -2 d/dx2; y2 is cubic in s.
        fields = [_field("1", "0"), _field("0", "x1^2")]
        assert FieldFamily.of(fields).flow_certificate(4) == (3, 2)

    def test_chain_degrees_compose(self):
        # y1 linear, y2 = O(s^3) from x1^2, y3 = O(s^4) from x1 x2: a chain of three.
        assert flow_certificate([_field("1", "x1^2", "x1*x2")]) == (5, 3)
        assert flow_certificate([_field("0", "0", "0")]) == (1, 1)
        assert flow_certificate([]) == (1, 1)

    @pytest.mark.parametrize(
        "fields",
        [[_field("x1")], [_field("x2", "-x1")], [_field("1", "0", "x1"), _field("x3", "0", "0")]],
        ids=["dilation", "rotation", "cycle-across-fields"],
    )
    def test_cycles_are_not_certified(self, fields):
        assert flow_certificate(fields) is None
        assert FieldFamily.of(fields).flow_certificate(2) is None
        assert dependency_levels(fields) is None
        assert CompiledField.stack(fields).levels is None


class TestDependencyLevels:
    def test_yamato_davie_stack_and_its_cotangent_lift(self, yamato):
        family = FieldFamily.of(yamato)
        assert family.davie_stack.levels == ((0, 1), (2,))
        # w_3 is constant; w_1 and w_2 read it, as y_3 reads y_1 and y_2.
        assert family.cotangent.davie_stack.levels == ((0, 1, 5), (2, 3, 4))
        assert family.bracket_stack(3).levels == ((0, 1), (2,))
        assert family.davie_stack.weighted(np.ones(12)).levels == family.davie_stack.levels

    def test_sheared_yamato_is_one_cycle(self):
        family = FieldFamily.of(sheared_yamato())
        assert family.davie_stack.levels is None
        assert family.cotangent.davie_stack.levels is None

    @pytest.mark.parametrize(
        "fields",
        [
            yamato_fields(),
            augmented_jacobian_fields(yamato_fields()),
            [_field("1", "0"), _field("0", "x1^2")],
            [_field("1", "x1^2", "x1*x2")],
            [_field("0", "0", "0")],
        ],
        ids=["yamato", "augmented", "quadratic-shear", "chain", "zero"],
    )
    def test_certified_depth_is_the_number_of_levels(self, fields):
        family = FieldFamily.of(fields)
        for n in (2, 3, 4):
            brackets = list(family.brackets(n).values())
            if brackets:
                assert family.flow_certificate(n)[1] == len(family.bracket_stack(n).levels)
        assert flow_certificate(fields)[1] == len(dependency_levels(fields))

    @given(fields=triangular_families())
    @settings(max_examples=30, deadline=None)
    def test_every_level_reads_only_lower_levels(self, fields):
        levels = dependency_levels(fields)
        assert flow_certificate(fields)[1] == len(levels)
        assert sorted(i for level in levels for i in level) == list(range(fields[0].m))
        rank = {i: r for r, level in enumerate(levels) for i in level}
        for fld in fields:
            for i, comp in enumerate(fld.components):
                assert all(rank[j] < rank[i] for j in comp.variables)
        # Each component above level 0 reads one on the level just below.
        for r, level in enumerate(levels[1:], 1):
            for i in level:
                assert any(rank[j] == r - 1 for fld in fields for j in fld.components[i].variables)


class TestContract:
    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_sum_that_does_not_depend_on_the_batch(self, seed):
        rng = np.random.default_rng(seed)
        stack = CompiledField.stack(planned_table_fields(rng, 5))
        w = rng.standard_normal((5, 40))
        got = stack.contract(w)
        assert got.shape == (len(stack.pairs), 40)
        assert np.allclose(got, stack.coef @ w, rtol=1e-14, atol=1e-14)
        assert np.array_equal(got[:, :7], stack.contract(w[:, :7]))
        assert np.array_equal(got[:, 3], stack.contract(w[:, 3]))
        assert np.array_equal(got.reshape(-1, 4, 10), stack.contract(w.reshape(5, 4, 10)))


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
        assert field_sum(bracket(v, w), bracket(w, v)).is_zero

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_jacobi_identity_exact(self, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (random_field(2, 3, rng) for _ in range(3))
        total = field_sum(bracket(u, bracket(v, w)), bracket(v, bracket(w, u)), bracket(w, bracket(u, v)))
        assert total.is_zero


class TestHypothesisCheckers:
    def test_yamato_is_three_nilpotent(self, yamato):
        ok, witness = FieldFamily.of(yamato).nilpotent(3)
        assert ok and witness is None

    def test_yamato_not_two_nilpotent(self, yamato):
        ok, witness = FieldFamily.of(yamato).nilpotent(2)
        assert not ok
        assert witness == (2, 3)

    def test_single_field_trivially_nilpotent(self, rng):
        v = random_field(2, 2, rng)
        ok, _ = FieldFamily.of([v]).nilpotent(2)
        assert ok

    def test_nilpotency_is_monotone_in_order(self, yamato):
        for n in (3, 4, 5):
            assert FieldFamily.of(yamato).nilpotent(n)[0]

    @pytest.mark.parametrize(
        "fields, order", [(yamato_fields(), 3), (chain_family(), 4), (parse_field_file("1 1\n1\n"), 2)]
    )
    def test_order_is_the_least_nilpotency_order(self, fields, order):
        assert FieldFamily.of(fields).order() == order

    def test_order_refuses_a_family_not_nilpotent_up_to_five(self):
        # [V1, V2] = -d1 and every further bracket with V1 is nonzero.
        with pytest.raises(PreconditionError, match="not 5-nilpotent") as err:
            FieldFamily.of(parse_field_file("1 2\nx1\n1\n")).order()
        assert err.value.name == "nilpotency"

    def test_constant_brackets(self, yamato):
        assert FieldFamily.of(yamato).constant_brackets(3)
        v1 = PolyVectorField((parse_polynomial("x2", 2), parse_polynomial("0", 2)))
        v2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("1", 2)))
        assert FieldFamily.of([v1, v2]).constant_brackets(2)
        # A genuinely nonconstant bracket: [w1, e1] has component -2 x1.
        w1 = PolyVectorField((parse_polynomial("x1^2", 2), parse_polynomial("0", 2)))
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        assert not FieldFamily.of([w1, e1]).constant_brackets(2)

    def test_hormander_rank_yamato(self, yamato, rng):
        assert hormander_rank(yamato, [0.0, 0.0, 0.0], 2) == 3
        for _ in range(5):
            assert hormander_rank(yamato, rng.standard_normal(3), 2) == 3
        assert hormander_rank(FieldFamily.of(yamato), [0.5, -1.0, 2.0], 2) == 3

    def test_hormander_rank_degenerate_cases(self, rng):
        assert hormander_rank([PolyVectorField.zero(2)], [0.0, 0.0], 2) == 0
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        e2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("1", 2)))
        assert hormander_rank([e1, e2], [0.0, 0.0], 1) == 2

    def test_hormander_rank_is_exact_at_small_scales(self):
        # A 1e-10 pivot tolerance on the scaled float rows read this rank as 1.
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        tiny_e2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("1/100000000000", 2)))
        assert hormander_rank([e1, tiny_e2], [0.0, 0.0], 1) == 2

    @pytest.mark.parametrize("x", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0], [[0.0, 0.0, 0.0]]])
    def test_hormander_rank_needs_a_finite_point_of_the_space(self, yamato, x):
        with pytest.raises(DomainError):
            hormander_rank(yamato, x, 2)


class TestParsing:
    def test_field_file_round_trip(self, yamato):
        text = format_field_file(yamato)
        back = parse_field_file(text)
        assert len(back) == 3
        for original, parsed in zip(yamato, back):
            assert parsed == original

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
        ["", "2", "2 2\nx1", "1 1\nx2", "1 1\n2.5", "1 1\n2*", "1 1\n(x1", "1 1\n1/0", "1 1\nx1 - 0/0"]
        + [pytest.param("1 1\n" + "(" * 3000 + "x1" + ")" * 3000, id="nested-past-the-recursion-limit")],
    )
    def test_malformed_files_rejected(self, bad):
        with pytest.raises(DomainError):
            parse_field_file(bad)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["x0", "x1", "x2", "x3", "+", "-", "*", "**", "^", "(", ")"]),
                st.integers(0, 9).map(str),
                st.tuples(st.integers(0, 12), st.integers(0, 3)).map(lambda r: f"{r[0]}/{r[1]}"),
            ),
            max_size=10,
        )
    )
    def test_grammar_tokens_parse_or_raise_domain_error(self, tokens):
        # Ten tokens cap the degree work: ((x1+x2)^9)^9 needs eleven.
        try:
            parse_polynomial(" ".join(tokens), 2)
        except DomainError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.recursive(
            st.sampled_from(["x1", "x2", "2", "3"]),
            lambda inner: st.one_of(
                st.tuples(st.sampled_from(["-", "+"]), inner).map("".join),
                st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
                st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
                st.tuples(st.sampled_from(["x1", "x2", "3"]), st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
            ),
            max_leaves=8,
        )
    )
    def test_signs_and_powers_bind_as_in_python(self, text):
        # A sign applies to the whole power after it, after an operator too: x1*-x2^2 is -x1*x2^2.
        poly = parse_polynomial(text, 2)
        for point in ((Fraction(2, 3), Fraction(-5, 7)), (Fraction(-3, 2), Fraction(1, 5))):
            want = eval(text.replace("^", "**"), {"x1": point[0], "x2": point[1]})
            assert sum(c * point[0] ** e[0] * point[1] ** e[1] for e, c in poly.terms.items()) == want

    def test_long_sign_runs_parse_without_recursion(self):
        assert parse_polynomial("-" * 5000 + "x1*" + "-" * 5001 + "x2", 2) == parse_polynomial("-x1*x2", 2)

    def test_power_syntax_variants(self):
        a = parse_polynomial("x1^2", 1)
        b = parse_polynomial("x1**2", 1)
        c = parse_polynomial("x1*x1", 1)
        assert a == b == c
