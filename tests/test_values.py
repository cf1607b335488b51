"""Value semantics of the immutable types: equality, hashing, read-only fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from strategies import frames3, scalars, vector_fields
from parakenmotsu.geometry import Components, Frame
from parakenmotsu.scalar import LinearForm, ScalarExpr, Term


def _fresh(q: Fraction) -> Fraction:
    return Fraction(q.numerator, q.denominator)


def _rebuilt(s: ScalarExpr) -> ScalarExpr:
    """An equal ScalarExpr that shares no Term or Fraction with s.

    Its exponents are rebuilt from fresh coefficients, but forms are
    interned, so the copy shares each LinearForm with s.
    """
    terms = tuple(
        Term(
            _fresh(t.coeff),
            tuple(t.monomial),
            LinearForm(tuple((i, _fresh(c)) for i, c in t.exponent.coeffs)),
        )
        for t in s.terms
    )
    return ScalarExpr(tuple(s.symbols), terms)


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars())
def test_equal_scalars_hash_alike(a, b):
    copy = _rebuilt(a)
    assert copy == a and copy is not a
    assert hash(copy) == hash(a)
    for t, u in zip(a.terms, copy.terms):
        assert t == u and hash(t) == hash(u)
        assert t.exponent == u.exponent and hash(t.exponent) == hash(u.exponent)
    assert {a: "a"}[copy] == "a"
    if a == b:
        assert hash(a) == hash(b)
    for t in a.terms:
        for u in b.terms:
            if t == u:
                assert hash(t) == hash(u)
            if t.exponent == u.exponent:
                assert hash(t.exponent) == hash(u.exponent)


@settings(max_examples=50, deadline=None)
@given(vector_fields())
def test_equal_vector_fields_hash_alike(x):
    # a vector field is its frame Components
    copy = Components(tuple(map(_rebuilt, x)), 1, 3)
    assert copy == x and hash(copy) == hash(x)
    assert {x: 1}[copy] == 1


@settings(max_examples=20, deadline=None)
@given(frames3())
def test_frames_built_alike_are_equal_whatever_their_cache_holds(frame):
    twin = Frame(frame.chart, frame.members, frame.signs)
    twin.structure_constants()
    twin.metric_tensor()
    assert set(twin._cache) != set(frame._cache)
    assert twin == frame and hash(twin) == hash(frame)
    flipped = (-frame.signs[0],) + frame.signs[1:]
    assert Frame(frame.chart, frame.members, flipped) != frame


@settings(max_examples=50, deadline=None)
@given(scalars().filter(lambda s: s.terms), frames3())
def test_fields_are_read_only(s, frame):
    term, tensor = s.terms[0], frame.metric_tensor()
    targets = [
        (s, "terms"),
        (s, "symbols"),
        (term, "coeff"),
        (term.exponent, "coeffs"),
        (frame.chart, "coords"),
        (tensor, "components"),
    ]
    for obj, name in targets:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before


@settings(max_examples=100, deadline=None)
@given(scalars())
def test_scalar_never_equals_a_plain_tuple(s):
    assert s != (s.symbols, s.terms) and (s.symbols, s.terms) != s
    assert s != s.terms
    for t in s.terms:
        assert t != (t.coeff, t.monomial, t.exponent)
        assert t.exponent != t.exponent.coeffs
