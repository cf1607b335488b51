"""Shared hypothesis strategies for geometry tests, and the structures and
expression text that several test modules build from.

Random frames are lower-triangular in the coordinate basis with
invertible single-term diagonal entries, so the member matrix is
always invertible over the scalar ring and Koszul's formula applies.
Vectors are drawn as frame components.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from parakenmotsu.dsl import parse_expr_tokens, tokenize
from parakenmotsu.fixtures import build_warped
from parakenmotsu.geometry import Chart, Components, Frame, Tensor
from parakenmotsu.scalar import DocumentError, LinearForm, ScalarExpr, Term
from parakenmotsu.structure import ParacontactStructure

CHART3 = Chart(("x", "y", "z"))
SYMS = CHART3.symbols


def parse_scalar(text: str, symbols: tuple[str, ...]) -> ScalarExpr:
    """Expression text read as a document coefficient, under the same bounds."""
    tokens = tokenize(text, 1)
    expr, end = parse_expr_tokens(tokens, 0, symbols)
    if end != len(tokens):
        t = tokens[end]
        raise DocumentError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return expr


def dense(values, rank: int, dim: int) -> Components:
    """The Components of a dense row-major sequence of dim**rank values."""
    values = list(values)
    assert len(values) == dim**rank, (len(values), rank, dim)
    idx = itertools.product(range(dim), repeat=rank)
    pairs = [(i, c) for i, c in zip(idx, values) if c.terms]
    return Components(pairs, rank, dim, ScalarExpr.zero(values[0].symbols))


def tabulate(frame: Frame, r: int, s: int, entry) -> Tensor:
    """The (r, s) tensor whose component at idx is entry(*idx)."""
    idx = itertools.product(range(frame.dim), repeat=r + s)
    return Tensor(frame, r, s, dense([entry(*i) for i in idx], r + s, frame.dim))


def build_flat(n: int = 1, params: tuple[str, ...] = ()) -> ParacontactStructure:
    """The warped structure's phi, xi and eta over the unwarped flat metric,
    whose frame members drop the factor e^z.  Deliberately NOT
    para-Kenmotsu; it exists for negative tests."""
    warped = build_warped(n, params)
    chart, d = warped.chart, warped.dim
    members = Components(
        [((i, i), chart.const(-1 if i == d - 1 else 1)) for i in range(d)], 2, d, chart.zero()
    )
    frame = Frame(chart, members, warped.frame.signs)
    phi = Tensor(frame, 1, 1, warped.phi.components)
    eta = Tensor(frame, 0, 1, warped.eta.components)
    return ParacontactStructure(frame, phi, warped.xi, eta, n)


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
        lambda comps: dense(comps, 1, 3)
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
        return Frame(CHART3, dense(sum(rows, ()), 2, 3), signs)

    return st.builds(
        build,
        st.tuples(unit_scalars(), unit_scalars(), unit_scalars()),
        st.tuples(_sparse_scalars(), _sparse_scalars(), _sparse_scalars()),
        st.tuples(*(st.sampled_from((1, -1)) for _ in range(3))),
    )
