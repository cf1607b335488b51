import math
import operator
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import is_zero, to_sympy
from strategies import parse_scalar, scalars
from parakenmotsu.dsl import (
    MAX_COEFFICIENT_BITS,
    MAX_LITERAL_DIGITS,
    MAX_POWER_TERMS,
    MAX_PRODUCT_TERMS,
)
from parakenmotsu.scalar import (
    MAX_COEFFICIENT_TERMS,
    ChartMismatch,
    DocumentError,
    LinearForm,
    NonInvertible,
    Rational,
    ScalarExpr,
    Term,
    TooManyTerms,
    UnknownSymbol,
    _coefficient,
    demote,
)

SYMS = ("x", "y", "z")


def sc(text):
    return parse_scalar(text, SYMS)


def test_binomial_identity_is_zero():
    e = sc("(x+1)^2 - x^2 - 2*x - 1")
    assert e.is_zero()


def test_difference_of_squares():
    assert sc("(x+y)*(x-y)") == sc("x^2 - y^2")


def test_exponentials_multiply_by_adding_forms():
    assert sc("exp(z)*exp(z)") == sc("exp(2*z)")
    assert sc("exp(z)*exp(-z)") == sc("1")


def test_mixed_term_product():
    e = sc("2*x*exp(z) * 1/2*x*exp(-2*z)")
    assert e == sc("x^2*exp(-z)")


def test_additive_inverse():
    e = sc("3*x^2*exp(z) - y")
    assert (e + (-e)).is_zero()


def test_invert_unit():
    e = sc("-2/3*exp(2*z)")
    inv = e.invert()
    assert inv == sc("-3/2*exp(-2*z)")
    assert (e * inv) == sc("1")


def test_invert_rejects_sums_and_monomials():
    with pytest.raises(NonInvertible):
        sc("1 + x").invert()
    with pytest.raises(NonInvertible):
        sc("2*x").invert()
    with pytest.raises(NonInvertible):
        sc("0").invert()


@settings(max_examples=120, deadline=None)
@given(scalars(max_terms=4), scalars(max_terms=4).filter(lambda b: not b.is_zero()))
def test_divide_undoes_multiplication(a, b):
    assert (a * b).divide(b) == a


def test_divide_rejects_non_multiples():
    # exp(x) / (1 + exp(-y)) would be the series exp(x) (1 - exp(-y) + ...),
    # each of whose terms lies above lowest(a) / lowest(b) in the term order;
    # the least exp(y) coefficient of a quotient, 0 - (-1), is above the
    # greatest, 0 - 0, so the division stops at once
    for a, b in [("x", "y"), ("1", "1 + x"), ("exp(x)", "1 + exp(-y)"), ("x + 1", "x - 1")]:
        with pytest.raises(NonInvertible):
            sc(a).divide(sc(b))
    with pytest.raises(NonInvertible):
        sc("x").divide(sc("0"))


def test_divide_stops_at_its_term_budget():
    assert len(sc("x^40 - 1").divide(sc("x - 1"), max_terms=40).terms) == 40
    with pytest.raises(TooManyTerms):
        sc("x^41 - 1").divide(sc("x - 1"), max_terms=40)
    with pytest.raises(TooManyTerms):
        (sc("1 + x") ** 41).divide(sc("2"), max_terms=40)


def test_diff_product_of_power_and_exponential():
    e = sc("x^2*exp(2*z)")
    assert e.diff("x") == sc("2*x*exp(2*z)")
    assert e.diff("z") == sc("2*x^2*exp(2*z)")
    assert e.diff("y").is_zero()


def test_diff_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        sc("x").diff("w")


def test_chart_mismatch_detected():
    a = parse_scalar("x", ("x", "y", "z"))
    b = parse_scalar("x", ("x", "t", "z"))
    with pytest.raises(ChartMismatch):
        a + b


def test_parse_errors_have_positions():
    with pytest.raises(DocumentError) as info:
        sc("x + w")
    assert info.value.col == 5
    with pytest.raises(DocumentError):
        sc("x +")
    with pytest.raises(DocumentError):
        sc("exp(x^2)")
    with pytest.raises(DocumentError):
        sc("exp(x + 1)")
    with pytest.raises(DocumentError):
        sc("x^-2")
    with pytest.raises(DocumentError):
        sc("1/0")


def test_products_are_bounded_before_expansion():
    def powers(name, k):
        return "(" + " + ".join(f"{name}^{i}" for i in range(1, k + 1)) + ")"

    assert MAX_PRODUCT_TERMS == 1000
    # 25 x 40 term products are within the bound, and stop at the term bound
    for k, message in ((25, "coefficient has 1000 terms"), (26, "product of 26 and 40 terms")):
        text = powers("x", k) + "*" + powers("y", 40)
        with pytest.raises(DocumentError) as info:
            sc(text)
        assert info.value.col == text.index("*(") + 1
        assert message in info.value.message


def test_powers_are_bounded_before_expansion():
    assert MAX_POWER_TERMS == 300
    # C(25, 2) = 300 terms are within the bound, and stop at the term bound
    for k, message in ((23, "coefficient has 300 terms"), (24, "power 24 of a 3-term sum")):
        with pytest.raises(DocumentError) as info:
            sc(f"1 + (x + y + z)^{k}")
        assert info.value.col == 16
        assert message in info.value.message
    # a single term has one term at any power
    assert len(sc("(2*x*exp(z))^1000").terms) == 1


def test_literals_and_coefficients_are_bounded_before_they_are_built():
    assert (MAX_LITERAL_DIGITS, MAX_COEFFICIENT_BITS) == (100, 10_000)
    assert sc("9" * 100 + "*x") == sc("x") * (10**100 - 1)
    with pytest.raises(DocumentError) as info:
        sc("x + " + "9" * 101)
    assert (info.value.col, info.value.message) == (
        5,
        "number literal longer than 100 digits",
    )
    # 2^10000 has 10,001 bits but the estimate, 10,000 * log2(2), is in bounds
    assert sc("2^10000") == sc("1") * 2**10000
    with pytest.raises(DocumentError) as info:
        sc("x * 2^10001")
    assert info.value.col == 6
    assert info.value.message == "power 10001 has coefficients wider than 10000 bits"
    with pytest.raises(DocumentError) as info:
        sc("2^6000 * 3^4000")
    assert info.value.col == 8
    assert info.value.message == "product has coefficients wider than 10000 bits"
    # a multi-term power counts its multinomial coefficients too
    with pytest.raises(DocumentError, match="wider than 10000 bits"):
        sc("(2^40 + x)^260")
    with pytest.raises(DocumentError, match="coefficient has 261 terms"):
        sc("(2^30 + x)^260")  # within the bit bound
    # a sum is checked once it is made, at its operator: 2^10000 + 2^10000
    # is 2^10001, and a sum of fractions widens its common denominator
    assert sc("2^9999 + 2^9999") == sc("2^10000")
    with pytest.raises(DocumentError) as info:
        sc("x + 2^10000 + 2^10000")
    assert (info.value.col, info.value.message) == (
        13,
        "sum has coefficients wider than 10000 bits",
    )
    with pytest.raises(DocumentError, match="sum has coefficients wider"):
        sc("1/3^5000 - 1/2^5000")


def test_document_coefficients_are_bounded_in_terms():
    assert MAX_COEFFICIENT_TERMS == 40
    sum40 = " + ".join(f"x^{i}" for i in range(40))
    assert len(sc(sum40).terms) == 40
    product = "(1 + x + x^2 + x^3 + x^4 + x^5 + x^6)*(1 + y + y^2 + y^3 + y^4 + y^5)"
    assert len(sc("(x + y + z)^7").terms) == 36
    for text, at in (
        (sum40 + " - y", sum40 + " -"),  # a sum, at its operator
        (product, product[: product.index("*") + 1]),  # 7 * 6 terms
        ("(x + y + z)^8", "(x + y + z)^"),  # 45 terms
    ):
        with pytest.raises(DocumentError) as info:
            sc(text)
        assert info.value.col == len(at)
        assert "more than 40" in info.value.message
    # terms that cancel on the way are not counted
    assert sc("(" + sum40 + ") - (" + sum40 + ") + y") == sc("y")


def test_rendering_is_canonical_and_round_trips():
    e = sc("y - x + x - 2*y + x^2*exp(-2*z)")
    text = str(e)
    assert text == "x^2*exp(-2*z) - y"
    assert parse_scalar(text, SYMS) == e
    assert str(ScalarExpr.zero(SYMS)) == "0"


# ---------------------------------------------------------------------------
# Property suite: ring laws, canonical forms, derivation rules.
# ---------------------------------------------------------------------------

rationals = st.fractions(
    st.integers(-6, 6).map(Fraction), st.integers(1, 4)
).map(lambda f: Fraction(f))


def _fracs():
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _terms():
    monomial = st.dictionaries(st.integers(0, 2), st.integers(1, 3), max_size=2).map(
        lambda d: tuple(sorted(d.items()))
    )
    linear = st.dictionaries(st.integers(0, 2), _fracs(), max_size=2).map(
        lambda d: LinearForm(d.items())
    )
    return st.builds(Term, _fracs(), monomial, linear)


def exprs():
    return st.lists(_terms(), max_size=3).map(
        lambda ts: ScalarExpr.normalize(SYMS, ts)
    )


@settings(max_examples=120, deadline=None)
@given(exprs(), exprs(), exprs())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    zero = ScalarExpr.zero(SYMS)
    one = ScalarExpr.const(1, SYMS)
    assert a + zero == a
    assert a * one == a
    assert (a * zero).is_zero()


@settings(max_examples=120, deadline=None)
@given(exprs())
def test_canonical_form_is_stable(a):
    renormalized = ScalarExpr.normalize(SYMS, a.terms)
    assert renormalized == a
    assert parse_scalar(str(a), SYMS) == a


@settings(max_examples=120, deadline=None)
@given(exprs(), exprs(), st.sampled_from(SYMS))
def test_derivation_rules(a, b, name):
    assert (a * b).diff(name) == a.diff(name) * b + a * b.diff(name)
    assert (a + b).diff(name) == a.diff(name) + b.diff(name)


@settings(max_examples=120, deadline=None)
@given(exprs(), st.sampled_from(SYMS), st.sampled_from(SYMS))
def test_mixed_partials_commute(a, u, v):
    assert a.diff(u).diff(v) == a.diff(v).diff(u)


@settings(max_examples=120, deadline=None)
@given(_fracs(), st.dictionaries(st.integers(0, 2), _fracs(), max_size=2))
def test_invert_round_trip(q, form):
    if q == 0:
        return
    unit = ScalarExpr(SYMS, (Term(q, (), LinearForm(form.items())),))
    assert (unit * unit.invert()) == ScalarExpr.const(1, SYMS)


@settings(max_examples=120, deadline=None)
@given(exprs(), exprs(), st.dictionaries(st.sampled_from(SYMS), _fracs()))
def test_evaluation_is_a_homomorphism(a, b, point):
    full = {sp.Symbol(name): sp.Rational(point.get(name, 0)) for name in SYMS}

    def at_point(e):
        return to_sympy(e, SYMS).subs(full)

    assert is_zero(at_point(a) + at_point(b) - at_point(a + b))
    assert is_zero(at_point(a) * at_point(b) - at_point(a * b))


@settings(max_examples=120, deadline=None)
@given(exprs(), st.integers(0, 4), st.integers(0, 4))
def test_powers_add_exponents(a, j, k):
    assert a**j * a**k == a ** (j + k)
    product = ScalarExpr.const(1, SYMS)
    for _ in range(j):
        product = product * a
    assert a**j == product


def _coefficients(e):
    for t in e.terms:
        yield t.coeff
        yield from (c for _, c in t.exponent.coeffs)


def _fraction(q):
    return Fraction(q.numerator, q.denominator)


def _with_fraction_coefficients(e):
    """e with every coefficient stored as a Fraction, integral or not."""
    return ScalarExpr(
        e.symbols,
        tuple(
            Term(
                _fraction(t.coeff),
                t.monomial,
                LinearForm(tuple((i, _fraction(c)) for i, c in t.exponent.coeffs)),
            )
            for t in e.terms
        ),
    )


@settings(max_examples=120, deadline=None)
@given(
    exprs(),
    exprs(),
    st.integers(0, 3),
    st.sampled_from(SYMS),
    _fracs(),
    st.dictionaries(st.integers(0, 2), _fracs(), max_size=2),
)
def test_coefficients_are_int_first(a, b, k, name, q, form):
    results = [a + b, a - b, -a, a * b, a * q, a**k, a.diff(name)]
    if q != 0:
        results.append(ScalarExpr(SYMS, (Term(q, (), LinearForm(form.items())),)).invert())
    results.append(ScalarExpr.const(q, SYMS) + a - a)
    for e in results:
        for c in _coefficients(e):
            assert type(c) is int or (type(c) is Rational and c.denominator != 1), c
        same = _with_fraction_coefficients(e)
        assert same == e and hash(same) == hash(e) and str(same) == str(e)
        if e.is_constant():
            assert type(e.as_rational()) is Rational
            assert e.as_rational() == same.as_rational()


def _form_mappings():
    return st.dictionaries(st.integers(0, 3), _fracs(), max_size=3)


@settings(max_examples=120, deadline=None)
@given(
    _form_mappings(),
    st.lists(_form_mappings(), max_size=6),
    st.randoms(use_true_random=False),
)
def test_linear_forms_are_interned(m, others, rnd):
    f = LinearForm(m.items())
    want = tuple(sorted((i, c) for i, c in m.items() if c != 0))
    assert f.coeffs == want
    assert all(type(c) is int or c.denominator != 1 for _, c in f.coeffs)
    # the same coefficients, each an int or an integral Fraction where it
    # can be, in any insertion order, give the same object
    items = list(m.items())
    rnd.shuffle(items)
    variant = {i: rnd.choice((Fraction(c), demote(c))) for i, c in items}
    assert LinearForm(variant.items()) is f
    assert LinearForm(want) is f and LinearForm(f.coeffs) is f
    # the hash is the coefficients' hash, whatever object holds them
    assert hash(f) == hash((tuple((i, Fraction(c)) for i, c in want),))
    assert -(-f) is f
    assert (f + -f) is LinearForm() and (-f).coeffs == tuple((i, -c) for i, c in want)
    # sums against a reference dict sum, twice, so the second reads the memo
    for other in others + others:
        g = LinearForm(other.items())
        assert (f == g) == (f.coeffs == g.coeffs) == (f is g)
        if f == g:
            assert hash(f) == hash(g)
        reference = dict(m)
        for i, c in other.items():
            reference[i] = reference.get(i, 0) + c
        total = f + g
        assert total.coeffs == tuple(
            sorted((i, c) for i, c in reference.items() if c != 0)
        )
        assert total is LinearForm(reference.items()) is g + f


def test_large_power_is_a_single_term():
    e = sc("x^100000")
    assert e.terms == (Term(Fraction(1), ((0, 100000),)),)
    assert str(e) == "x^100000"


# ---------------------------------------------------------------------------
# The ring's Rational against the standard library's Fraction.
# ---------------------------------------------------------------------------

_INTS = st.one_of(st.integers(-6, 6), st.integers(-(2**80), 2**80))
_DENOMINATORS = st.one_of(st.integers(1, 6), st.integers(1, 2**80))


def _operands():
    """An int, a Rational or a Fraction, with its value as a Fraction."""
    fractions = st.builds(Fraction, _INTS, _DENOMINATORS)
    return st.one_of(
        _INTS.map(lambda k: (k, Fraction(k))),
        fractions.map(lambda q: (Rational(q.numerator, q.denominator), q)),
        fractions.map(lambda q: (q, q)),
    )


def _same(got, want):
    assert got == want and want == got
    assert str(got) == str(want) and hash(got) == hash(want)


@settings(max_examples=400, deadline=None)
@given(_INTS, st.one_of(_DENOMINATORS, _DENOMINATORS.map(lambda d: -d)))
def test_rational_is_in_lowest_terms(n, d):
    got, want = Rational(n, d), Fraction(n, d)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    _same(got, want)
    assert repr(got) == f"Rational({want.numerator}, {want.denominator})"
    with pytest.raises(ZeroDivisionError):
        Rational(n, 0)


@settings(max_examples=400, deadline=None)
@given(_operands(), _operands())
def test_rational_agrees_with_fraction(x, y):
    (a, qa), (b, qb) = x, y
    for v, q in (x, y):
        if type(v) is Rational:
            for op in (operator.neg, abs):
                assert type(op(v)) is Rational
                _same(op(v), op(q))
            assert bool(v) == bool(q) and int(v) == math.trunc(q)
        _same(v, q)
    if Rational not in (type(a), type(b)):
        return  # no operand of the ring's type
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if op is operator.truediv and qb == 0:
            with pytest.raises(ZeroDivisionError):
                a / b
            continue
        got = op(a, b)
        _same(got, op(qa, qb))
        assert type(got) is Rational
    for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
        assert op(a, b) == op(qa, qb)
    assert sorted([a, b, 0]) == sorted([qa, qb, 0])


def test_only_exact_rationals_are_coefficients():
    assert _coefficient(Fraction(6, 3)) == 2 and type(_coefficient(Fraction(6, 3))) is int
    assert type(_coefficient(Fraction(1, 3))) is Rational
    for value in (0.5, 1.0, "1/2", None):
        with pytest.raises(TypeError, match=rf"^expected an exact rational, got {type(value).__name__}$"):
            _coefficient(value)
    half = Rational(1, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt):
        with pytest.raises(TypeError):
            op(half, 0.5)
        with pytest.raises(TypeError):
            op(0.5, half)
    assert half != 0.5
    with pytest.raises(AttributeError, match="read-only"):
        half.numerator = 3
