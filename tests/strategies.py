"""Shared hypothesis strategies for geometry tests.

Random frames are lower-triangular in the coordinate basis with
invertible single-term diagonal entries, so the member matrix is
always invertible over the scalar ring and Koszul's formula applies.
Vectors are drawn as frame components.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from parakenmotsu.geometry import Chart, Components, Frame
from parakenmotsu.scalar import LinearForm, ScalarExpr, Term

CHART3 = Chart(("x", "y", "z"))
SYMS = CHART3.symbols


def fracs(lo=-3, hi=3, den=2):
    return st.builds(
        Fraction, st.integers(lo, hi), st.integers(1, den)
    )


def nonzero_fracs():
    return fracs().filter(lambda q: q != 0)


def _linear_forms(max_coeff=2):
    return st.dictionaries(
        st.integers(0, 2),
        st.builds(Fraction, st.integers(-max_coeff, max_coeff)),
        max_size=2,
    ).map(lambda d: LinearForm(d.items()))


def _terms():
    monomial = st.dictionaries(
        st.integers(0, 2), st.integers(1, 2), max_size=2
    ).map(lambda d: tuple(sorted(d.items())))
    return st.builds(Term, fracs(), monomial, _linear_forms())


def scalars(max_terms=2):
    """Small random ring elements over the 3-dimensional chart."""
    return st.lists(_terms(), max_size=max_terms).map(
        lambda ts: ScalarExpr.normalize(SYMS, ts)
    )


def vector_fields():
    """Frame components of a vector field on the 3-dimensional chart."""
    return st.tuples(scalars(), scalars(), scalars()).map(
        lambda comps: Components(comps, 1, 3)
    )


def unit_scalars():
    """Invertible single-term entries q * e^(linear form)."""
    return st.builds(
        lambda q, form: ScalarExpr(SYMS, (Term(q, (), form),)),
        nonzero_fracs(),
        _linear_forms(max_coeff=1),
    )


def _sparse_scalars():
    return st.one_of(st.just(ScalarExpr.zero(SYMS)), scalars(max_terms=1))


def frames3():
    """Random pseudo-orthonormal frames on the 3-dimensional chart."""

    def build(diag, below, signs):
        rows = (
            (diag[0], CHART3.zero(), CHART3.zero()),
            (below[0], diag[1], CHART3.zero()),
            (below[1], below[2], diag[2]),
        )
        return Frame(CHART3, Components(sum(rows, ()), 2, 3), signs)

    return st.builds(
        build,
        st.tuples(unit_scalars(), unit_scalars(), unit_scalars()),
        st.tuples(_sparse_scalars(), _sparse_scalars(), _sparse_scalars()),
        st.tuples(*(st.sampled_from((1, -1)) for _ in range(3))),
    )
