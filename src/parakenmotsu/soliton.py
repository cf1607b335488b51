"""Soliton constants, curvature conditions, and symbolic factor extraction.

The central equation is

    (L_xi g)(X,Y) + 2 S(X,Y) + 2 lambda g(X,Y) + 2 mu eta(X) eta(Y) = 0

for exact rational constants (lambda, mu).  The four curvature
conditions are derivation-style residuals built from R, S and W2; on
structures satisfying the defining condition each residual is a scalar
polynomial in mu (after eliminating lambda = 2n - mu) times a fixed
rational tensor shape, and the polynomial's rational roots are exactly
the advertised solution sets.

Sign conventions in the derivation-style displays are not consistent
across circulated write-ups, so the extraction below normalizes the
polynomial to integer coefficients with content 1 and reports the
rational proportionality constant `scale` separately; the root sets are
invariant under this normalization.
"""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction
from math import isqrt

from parakenmotsu.connection import FrameConnection, koszul_connection
from parakenmotsu.curvature import ricci_operator, riemann, w2_tensor
from parakenmotsu.fixtures import build_warped
from parakenmotsu.geometry import (
    Components,
    Tensor,
    ValenceError,
    contract,
    tensor_apply,
)
from parakenmotsu.report import witness_at
from parakenmotsu.scalar import ScalarExpr
from parakenmotsu.structure import ParacontactStructure, vanishing_check


class NoConstantSolution(ValueError):
    """The soliton equation has no constant rational solution."""


class NotInSpan(ValueError):
    """The Ricci tensor is not a constant combination of g and eta x eta."""


class NotParallel(ValueError):
    """The tensor has a nonzero covariant derivative."""


class NotMultiple(ValueError):
    """Parallel, but not a constant multiple of the metric."""


class FactorError(ValueError):
    """The condition residual is not a scalar multiple of its shape."""


class SolitonSolution:
    def __init__(self, lam: Fraction, mu: Fraction, n: int):
        if lam + mu != 2 * n:
            raise ValueError(
                f"soliton constants ({lam}, {mu}) violate lambda + mu = 2n = {2 * n}"
            )
        self.lam = lam
        self.mu = mu
        self.n = n
        self.classification = "Einstein" if mu == 1 else "quasi-Einstein"


class ConditionKind(Enum):
    R_DOT_S = "R.S"
    S_DOT_R = "S.R"
    W2_DOT_S = "W2.S"
    S_DOT_W2 = "S.W2"


def _as_rational(expr: ScalarExpr, error, witness: str) -> Fraction:
    try:
        return expr.as_rational()
    except ValueError as exc:
        raise error(f"{witness}: {expr}") from exc


def _split(t: Tensor, g: Tensor, eta: Tensor, error) -> tuple[Fraction, Fraction]:
    """Constants (a, b) with t = a*g + b*(eta x eta) exactly; else raises `error`.

    The frame is pseudo-orthonormal, so g = diag(signs) is its own inverse.
    At the first E_p that eta annihilates, t(E_p, E_p) = a*signs[p].  At xi,
    the metric dual of eta, t(xi, xi) = a + b, since xi is checked to be a
    unit vector (A8) first.  The witness of a t outside the span is its
    first component that is not rational, or else the first nonzero
    component of t - a*g - b*eta x eta.
    """
    p = next((i for i in range(g.frame.dim) if eta[i].is_zero()), None)
    if p is None:
        raise error("no diagonal frame direction annihilated by eta")
    xi = contract("g[am] eta[m] -> a", g=g, eta=eta)
    norm = contract("eta[i] xi[i] ->", eta=eta, xi=xi)
    if not (norm - 1).is_zero():
        raise error(f"xi is not a unit vector: g(xi, xi) = {norm}")
    a = _as_rational(t[p, p], error, f"component [E{p + 1}, E{p + 1}]") * g.frame.signs[p]
    on_xi = contract("t[ij] xi[i] xi[j] ->", t=t, xi=xi)
    b = _as_rational(on_xi, error, "component [xi, xi]") - a
    residual = contract(
        "t[ij] - a g[ij] - b eta[i] eta[j] -> ij", t=t, a=a, g=g, b=b, eta=eta
    ).nonzero()
    if residual:
        raise error(witness_at(*residual[0]))
    return a, b


def solve_soliton(s: ParacontactStructure, ricci_tensor: Tensor) -> SolitonSolution:
    """Solve L_xi g + 2S + 2 lambda g + 2 mu eta x eta = 0 exactly."""
    flow = s.lie_metric() + ricci_tensor.scale(2)
    a, b = _split(flow, s.metric(), s.eta, NoConstantSolution)
    try:
        return SolitonSolution(-a / 2, -b / 2, s.n)
    except ValueError as exc:
        raise NoConstantSolution(str(exc)) from exc


def quasi_einstein_decompose(
    ricci_tensor: Tensor, g: Tensor, eta: Tensor
) -> tuple[Fraction, Fraction]:
    """Constants (a, b) with S = a*g + b*(eta x eta), exactly."""
    return _split(ricci_tensor, g, eta, NotInSpan)


# -- condition residuals ---------------------------------------------------


# Each residual is a sum of contractions of the operator `op` (R or W2, so
# op[a, i, j, k] is the E_a component of op(E_i, E_j)E_k), the Ricci tensor
# S and xi.

# (0,3): S(op(xi,X)Y, Z) + S(Y, op(xi,X)Z)
_DERIVATION = ("+ xi[b] op[mbxy] S[mz]", "+ S[ym] xi[b] op[mbxz]")

# (1,4), at (X,Y,Z,W) = (E_x, E_y, E_z, E_w):
#     S(X, op(Y,Z)W) xi - S(xi, op(Y,Z)W) X
#   + S(X,Y) op(xi,Z)W - S(xi,Y) op(X,Z)W
#   + S(X,Z) op(Y,xi)W - S(xi,Z) op(Y,X)W
#   + S(X,W) op(Y,Z)xi - S(xi,W) op(Y,Z)X
_EIGHT_TERM = (
    "+ S[xm] op[myzw] xi[a]",
    "- xi[b] S[bm] op[myzw] delta[ax]",
    "+ S[xy] xi[m] op[amzw]",
    "- xi[b] S[by] op[axzw]",
    "+ S[xz] xi[m] op[aymw]",
    "- xi[b] S[bz] op[ayxw]",
    "+ S[xw] xi[m] op[ayzm]",
    "- xi[b] S[bw] op[ayzx]",
)


def _residual_components(
    kind: ConditionKind,
    s: ParacontactStructure,
    op: Tensor,
    ricci_tensor: Tensor,
    paired: str,
    out: str,
):
    """Components of the kind's residual with every term times `paired`."""
    derivation = kind in (ConditionKind.R_DOT_S, ConditionKind.W2_DOT_S)
    terms = _DERIVATION if derivation else _EIGHT_TERM
    spec = " ".join(f"{term} {paired}" for term in terms) + f" -> {out}"
    return contract(spec, op=op, S=ricci_tensor, xi=s.xi, eta=s.eta)


def condition_residual(
    kind: ConditionKind, s: ParacontactStructure, op: Tensor, ricci_tensor: Tensor
) -> Tensor:
    """Full residual tensor of the selected curvature condition.

    `op` is the kind's operator: the Riemann tensor for R.S and S.R, the
    W2 tensor for W2.S and S.W2.
    """
    if kind in (ConditionKind.R_DOT_S, ConditionKind.W2_DOT_S):
        return Tensor.build(
            s.frame, 0, 3, _residual_components(kind, s, op, ricci_tensor, "", "xyz")
        )
    return Tensor.build(
        s.frame, 1, 4, _residual_components(kind, s, op, ricci_tensor, "", "axyzw")
    )


def condition_residual_xi_paired(
    kind: ConditionKind, s: ParacontactStructure, full: Tensor
) -> Tensor:
    """(0,4) inner product of the eight-term residual `full` with xi."""
    if kind not in (ConditionKind.S_DOT_R, ConditionKind.S_DOT_W2):
        raise ValenceError("xi pairing applies to the eight-term conditions")
    comps = contract("eta[a] F[axyzw] -> xyzw", eta=s.eta, F=full)
    return Tensor.build(s.frame, 0, 4, comps)


def theorem_expected(
    kind: ConditionKind, n: int
) -> frozenset[tuple[Fraction, Fraction]]:
    """Exact (lambda, mu) solution sets of the four conditions."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind is ConditionKind.R_DOT_S:
        pairs = [(2 * n - 1, 1)]
    elif kind is ConditionKind.S_DOT_R:
        pairs = [(-2 * n - 1, 4 * n + 1)]
    else:
        pairs = [(2 * n - 1, 1), (-1, 2 * n + 1)]
    return frozenset((Fraction(a), Fraction(b)) for a, b in pairs)


def condition_check(
    kind: ConditionKind,
    s: ParacontactStructure,
    residual: Tensor,
    sol: SolitonSolution,
) -> str | None:
    """Consistency of the kind's residual with the advertised solution set.

    The source paper proves one direction for every kind: if the residual
    (from condition_residual) vanishes on an eta-Ricci soliton, then the
    solved (lambda, mu) lies in theorem_expected.  So the check fails when
    the residual vanishes at constants that are not advertised, and, for
    the eight-term kinds, when the residual and its xi-paired form do not
    vanish together.

    The converse is claimed for R.S alone, where it is proven: on a
    para-Kenmotsu structure, L_xi g = 2(g - eta (x) eta), so the soliton
    equation gives S = -(1 + lambda) g + (1 - mu) eta (x) eta, and the
    advertised (2n - 1, 1) makes S = -2n g Einstein.  R(xi, X) is skew
    with respect to g, and a skew derivation annihilates g, hence every
    Einstein S: R(xi, X).S = 0.  For S.R, W2.S and S.W2 an advertised
    pair need not make the residual vanish; a para-Kenmotsu Einstein
    structure of non-constant curvature has a nonzero S.W2 residual at
    (2n - 1, 1).  Returns None when consistent, else the problem found.
    """
    vanishes = residual.is_zero()
    problem = None
    if kind in (ConditionKind.S_DOT_R, ConditionKind.S_DOT_W2):
        paired = condition_residual_xi_paired(kind, s, residual)
        if paired.is_zero() != vanishes:
            problem = (
                "full residual and xi-paired residual disagree:"
                f" {vanishes} vs {paired.is_zero()}"
            )
    expected = (sol.lam, sol.mu) in theorem_expected(kind, s.n)
    claimed = vanishes or kind is ConditionKind.R_DOT_S  # the proven directions
    if problem is None and claimed and vanishes != expected:
        state = "vanishes" if vanishes else "does not vanish"
        bad = residual.first_nonzero()
        detail = "" if bad is None else f"; first nonzero {witness_at(*bad)}"
        problem = (
            f"residual {state} but (lambda, mu) = ({sol.lam}, {sol.mu})"
            f" {'is' if expected else 'is not'} an advertised solution{detail}"
        )
    return problem


# -- symbolic factor extraction --------------------------------------------


class FactorResult:
    def __init__(self, polynomial: ScalarExpr, scale: Fraction):
        self.polynomial = polynomial  # integer-primitive polynomial in mu
        self.scale = scale  # residual = scale * polynomial * shape


_MU = ("mu",)


def _mu_expr(c0: Fraction, c1: Fraction, c2: Fraction) -> ScalarExpr:
    mu = ScalarExpr.coordinate("mu", _MU)
    return ScalarExpr.const(c0, _MU) + mu * c1 + mu * mu * c2


def canonical_factor(kind: ConditionKind, n: int) -> ScalarExpr:
    """The advertised factor polynomial, lambda already eliminated."""
    if kind is ConditionKind.R_DOT_S:
        return _mu_expr(Fraction(-1), Fraction(1), Fraction(0))
    if kind is ConditionKind.S_DOT_R:
        return _mu_expr(Fraction(4 * n + 1), Fraction(-1), Fraction(0))
    if kind is ConditionKind.W2_DOT_S:
        return _mu_expr(Fraction(-(2 * n + 1)), Fraction(2 * n + 2), Fraction(-1))
    return _mu_expr(Fraction(2 * n + 1), Fraction(-2 * (n + 1)), Fraction(1))


def _mu_coefficients(poly: ScalarExpr) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (c0, c1, c2) of a polynomial in the symbol mu."""
    mu_index = poly.symbols.index("mu")
    coeffs = [Fraction(0), Fraction(0), Fraction(0)]
    for term in poly.terms:
        if not term.exponent.is_zero():
            raise FactorError(f"exponential part in factor polynomial: {poly}")
        if not term.monomial:
            coeffs[0] += term.coeff
        elif len(term.monomial) == 1 and term.monomial[0][0] == mu_index:
            power = term.monomial[0][1]
            if power > 2:
                raise FactorError(f"degree above 2 in factor polynomial: {poly}")
            coeffs[power] += term.coeff
        else:
            raise FactorError(f"non-mu symbol in factor polynomial: {poly}")
    return tuple(coeffs)


def rational_roots(poly: ScalarExpr) -> frozenset[Fraction]:
    """Rational roots of a polynomial in mu of degree at most two."""
    c0, c1, c2 = _mu_coefficients(poly)
    if c2 == 0:
        if c1 == 0:
            raise FactorError("constant polynomial has no finite root set")
        return frozenset({-c0 / c1})
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return frozenset()
    num, den = disc.numerator, disc.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return frozenset()
    root = Fraction(rn, rd)
    return frozenset({(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)})


@functools.lru_cache(maxsize=None)
def _generic(n: int):
    """Warped structure with symbolic mu and the matching symbolic Ricci."""
    s = build_warped(n, params=("mu",))
    conn = koszul_connection(s.frame)
    riem = riemann(conn, verify=False)
    mu = s.chart.coordinate("mu")
    g = s.metric()
    ee = s.eta_square()
    ricci_sym = g.scale(mu - (2 * n + 1)) + ee.scale(s.chart.const(1) - mu)
    q_sym = ricci_operator(ricci_sym)
    return s, conn, riem, mu, ricci_sym, q_sym


@functools.lru_cache(maxsize=None)
def _generic_w2(n: int) -> Tensor:  # shared by the W2.S and S.W2 factors
    _, _, riem, _, _, q_sym = _generic(n)
    return w2_tensor(riem, q_sym, n)


def _ratio_against_shape(values: Components, shape: Components) -> ScalarExpr:
    """Common polynomial p with values = p * shape, for a rational shape.

    Only the indices where a value or the shape is nonzero are visited, in
    row-major order, so the first mismatch reported is the first in that
    order.
    """
    value_at, shape_at = dict(values.nonzero()), dict(shape.nonzero())
    poly = None
    for idx in sorted(value_at.keys() | shape_at.keys()):
        coefficient = shape_at.get(idx)
        if coefficient is None:
            raise FactorError(
                f"residual nonzero where the shape vanishes: {value_at[idx]}"
            )
        value = value_at.get(idx, ScalarExpr.zero(coefficient.symbols))
        scaled = value * (Fraction(1) / coefficient.as_rational())
        if poly is None:
            poly = scaled
        elif poly != scaled:
            raise FactorError("residual is not a scalar multiple of the shape")
    if poly is None:
        raise FactorError("shape tensor is identically zero")
    return poly


# The residual terms' extra factor and the fixed rational shape of each kind;
# the shape's output letters are the residual's.
_FACTOR_SHAPES = {
    ConditionKind.R_DOT_S: (
        "",
        "eta[y] g[xz] + eta[z] g[xy] - 2 eta[x] eta[y] eta[z] -> xyz",
    ),
    ConditionKind.W2_DOT_S: ("xi[z]", "- g[xy] + eta[x] eta[y] -> xy"),
    # eta and xi enter every term, so the (1,4) residual is never built
    ConditionKind.S_DOT_R: ("eta[a] xi[w]", "eta[y] g[xz] - eta[z] g[xy] -> xyz"),
    ConditionKind.S_DOT_W2: ("eta[a] xi[w]", "eta[y] g[xz] - eta[z] g[xy] -> xyz"),
}


def _matched(raw: ScalarExpr, target: ScalarExpr) -> FactorResult:
    """raw as scale * target, for a nonzero rational scale.

    The scale is the first ratio of coefficients at a power of mu where the
    target's coefficient is nonzero.
    """
    have, want = _mu_coefficients(raw), _mu_coefficients(target)
    scale = next((h / w for h, w in zip(have, want) if w != 0), 0)
    if scale == 0:
        raise FactorError(f"degenerate factor {raw}")
    if have != tuple(scale * w for w in want):
        raise FactorError(
            f"extracted factor {raw} is not proportional to the advertised one"
        )
    return FactorResult(target, scale)


def symbolic_factor_check(kind: ConditionKind, n: int) -> FactorResult:
    """Extract the condition's scalar factor on the generic structure.

    Builds the symbolic Ricci tensor with lambda eliminated through
    lambda + mu = 2n, evaluates the condition residual, divides out the
    fixed rational shape, and matches the resulting polynomial in mu
    against the advertised factor up to a rational constant.
    """
    s, conn, riem, mu, ricci_sym, q_sym = _generic(n)
    op = riem
    if kind in (ConditionKind.W2_DOT_S, ConditionKind.S_DOT_W2):
        op = _generic_w2(n)
    paired, shape = _FACTOR_SHAPES[kind]
    out = shape.partition("->")[2].strip()
    values = _residual_components(kind, s, op, ricci_sym, paired, out)
    raw = _ratio_against_shape(values, contract(shape, **s.operands()))
    return _matched(raw, canonical_factor(kind, n))


def phi_ricci_prefactor(n: int) -> FactorResult:
    """Factor of phi^2((nabla_X Q)Y) against eta(Y)[X - eta(X) xi]."""
    s, conn, riem, mu, ricci_sym, q_sym = _generic(n)
    image = contract(
        "phi[ab] phi[bm] nq[imj] -> ija", phi=s.phi, nq=conn.nabla(q_sym)
    )
    shape = contract("eta[j] delta[ia] - eta[j] eta[i] xi[a] -> ija", **s.operands())
    raw = _ratio_against_shape(image, shape)
    return _matched(raw, _mu_expr(Fraction(-1), Fraction(1), Fraction(0)))


# -- parallel tensors -------------------------------------------------------


def _first_non_parallel(conn: FrameConnection, t: Tensor) -> str | None:
    """Witness at the first nonzero component of nabla T, else None.

    The direction index comes first, so this is the first direction E_i
    with nabla_{E_i} T != 0.
    """
    nonzero = conn.nabla(t).nonzero()
    if not nonzero:
        return None
    (i, *at), value = nonzero[0]
    return f"nabla along E{i + 1} at {witness_at(tuple(at), value)}"


def parallel_tensor_classify(
    alpha: Tensor, conn: FrameConnection, s: ParacontactStructure
) -> Fraction:
    """Verify nabla alpha = 0 and return c with alpha = c * g."""
    if (alpha.r, alpha.s) != (0, 2):
        raise ValenceError("expected a (0,2) tensor")
    d = s.dim
    for i in range(d):
        for j in range(i + 1, d):
            if not (alpha[i, j] - alpha[j, i]).is_zero():
                raise ValenceError(f"tensor not symmetric at ({i}, {j})")
    witness = _first_non_parallel(conn, alpha)
    if witness is not None:
        raise NotParallel(witness)
    c, b = _split(alpha, s.metric(), s.eta, NotMultiple)
    if b != 0:
        raise NotMultiple(f"alpha = {c} g + {b} eta x eta")
    return c


def soliton_from_parallel_check(
    s: ParacontactStructure,
    conn: FrameConnection,
    ricci_tensor: Tensor,
    sol: SolitonSolution,
) -> str | None:
    """Recover lambda from the parallel deformation and cross-check.

    alpha := L_xi g + 2S + 2 mu (eta x eta) with the solved mu must be
    parallel, and then lambda = -alpha(xi, xi)/2 must reproduce the
    solver's value.  Returns None when both hold, else the witness.
    """
    alpha = s.lie_metric() + ricci_tensor.scale(2) + s.eta_square().scale(2 * sol.mu)
    problem = _first_non_parallel(conn, alpha)
    if problem is None:
        try:
            lam = -_as_rational(
                tensor_apply(alpha, (s.xi, s.xi)), NotMultiple, "alpha(xi, xi)"
            ) / 2
            if lam != sol.lam:
                problem = f"recovered lambda {lam} differs from solved {sol.lam}"
        except NotMultiple as exc:
            problem = str(exc)
    return problem


def mu_zero_variant_check(
    s: ParacontactStructure,
    conn: FrameConnection,
    ricci_tensor: Tensor,
) -> str | None:
    """mu = 0 deformation must NOT be parallel (no plain Ricci soliton)."""
    alpha = s.lie_metric() + ricci_tensor.scale(2)
    if _first_non_parallel(conn, alpha) is None:
        return "mu = 0 deformation is parallel, so a plain Ricci soliton would exist"
    return None


def phi_ricci_symmetric_check(
    s: ParacontactStructure,
    conn: FrameConnection,
    ricci_tensor: Tensor,
    q: Tensor,
    sol: SolitonSolution,
) -> list[str | None]:
    """Witnesses of P1-P3: phi^2(nabla Q), and Q and S parallel along xi."""
    operands = dict(s.operands(), nq=conn.nabla(q), ns=conn.nabla(ricci_tensor))
    # phi^2((nabla_{E_i} Q)E_j) = (1 - mu) eta(E_j) [E_i - eta(E_i) xi]
    return [
        vanishing_check(
            "phi[ab] phi[bm] nq[imj] - c eta[j] delta[ai] + c eta[j] eta[i] xi[a]"
            " -> ija",
            dict(operands, c=1 - sol.mu),
            labels="aij",
        ),
        vanishing_check("xi[i] nq[iab] -> ab", operands),
        vanishing_check("xi[i] ns[iab] -> ab", operands),
    ]
