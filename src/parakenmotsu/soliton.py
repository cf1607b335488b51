"""Soliton constants, curvature conditions, and symbolic factor extraction.

The central equation is

    (L_xi g)(X,Y) + 2 S(X,Y) + 2 lambda g(X,Y) + 2 mu eta(X) eta(Y) = 0

for exact rational constants (lambda, mu).  The four curvature
conditions are one table, `CONDITIONS`, whose row is all the code knows
of a condition.  On structures satisfying the defining condition each
residual is a scalar polynomial in mu (after eliminating lambda = 2n - mu)
times the row's rational shape, and each advertised pair is (2n - r, r)
for a mu-root r of the paper's factor.

Sign conventions in the derivation-style displays are not consistent
across circulated write-ups, so the extraction below solves nothing: it
builds the paper's factor from the row's sign and mu-roots, proves that
the residual's polynomial is a rational multiple of it, and reports that
multiple as `scale`.  The roots it reports are the row's.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from parakenmotsu.connection import FrameConnection, koszul_connection
from parakenmotsu.curvature import ricci_operator, riemann, w2_tensor
from parakenmotsu.geometry import Components, Tensor, ValenceError, contract
from parakenmotsu.kinds import ConditionKind
from parakenmotsu.report import witness_at
from parakenmotsu.scalar import Rational, ScalarExpr
from parakenmotsu.structure import ParacontactStructure, vanishing_check


class NoConstantSolution(ValueError):
    """The soliton equation has no constant rational solution."""


class NotInSpan(ValueError):
    """The Ricci tensor is not a constant combination of g and eta x eta."""


class NotMultiple(ValueError):
    """Parallel, but not a constant multiple of the metric."""


class FactorError(ValueError):
    """The condition residual is not a scalar multiple of its shape."""


class SolitonSolution:
    def __init__(self, lam: Rational, mu: Rational, n: int):
        if lam + mu != 2 * n:
            raise ValueError(
                f"soliton constants ({lam}, {mu}) violate lambda + mu = 2n = {2 * n}"
            )
        self.lam = lam
        self.mu = mu
        self.n = n
        self.classification = "Einstein" if mu == 1 else "quasi-Einstein"


def _as_rational(expr: ScalarExpr, error, witness: str) -> Rational:
    try:
        return expr.as_rational()
    except ValueError as exc:
        raise error(f"{witness}: {expr}") from exc


def _split(t: Tensor, g: Tensor, eta: Tensor, error) -> tuple[Rational, Rational]:
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


def _deformation(s: ParacontactStructure, ricci_tensor: Tensor, c=0) -> Tensor:
    """L_xi g + 2S + c eta x eta: the soliton flow and T2's alpha at c = 0, T1's at 2 mu."""
    comps = contract(
        "lg[ij] + 2 S[ij] + c eta[i] eta[j] -> ij",
        lg=s.lie_metric, S=ricci_tensor, c=c, eta=s.eta,
    )
    return Tensor.build(s.frame, 0, 2, comps)


def solve_soliton(s: ParacontactStructure, ricci_tensor: Tensor) -> SolitonSolution:
    """Solve L_xi g + 2S + 2 lambda g + 2 mu eta x eta = 0 exactly."""
    a, b = _split(_deformation(s, ricci_tensor), s.metric(), s.eta, NoConstantSolution)
    try:
        return SolitonSolution(-a / 2, -b / 2, s.n)
    except ValueError as exc:
        raise NoConstantSolution(str(exc)) from exc


def quasi_einstein_decompose(
    ricci_tensor: Tensor, g: Tensor, eta: Tensor
) -> tuple[Rational, Rational]:
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


class Condition(NamedTuple):
    """What the paper states about one curvature condition, as plain data."""

    operator: str  # "R" or "W2"
    terms: tuple[str, ...]  # _DERIVATION, (0,3); or _EIGHT_TERM, (1,4) and xi-paired
    sign: int  # the paper's factor is sign * prod(mu - r) over the mu-roots r
    roots: tuple[tuple[int, int], ...]  # r(n) = a*n + b as (a, b); pair (2n - r, r)
    paired: str  # factor extraction: the extra factor of every residual term
    shape: str  # factor extraction: the rational shape, over the residual's letters
    converse: bool  # the advertised pairs are proven to make the residual vanish


_SKEW_SHAPE = "eta[y] g[xz] - eta[z] g[xy] -> xyz"

# The only place that names a kind.  eta and xi enter every paired term of
# the eight-term kinds, so their factors never build the (1,4) residual.
CONDITIONS: dict[ConditionKind, Condition] = {
    ConditionKind.R_DOT_S: Condition(
        "R", _DERIVATION, 1, ((0, 1),), "",
        "eta[y] g[xz] + eta[z] g[xy] - 2 eta[x] eta[y] eta[z] -> xyz", True,
    ),
    ConditionKind.S_DOT_R: Condition(
        "R", _EIGHT_TERM, -1, ((4, 1),), "eta[a] xi[w]", _SKEW_SHAPE, False
    ),
    ConditionKind.W2_DOT_S: Condition(
        "W2", _DERIVATION, -1, ((0, 1), (2, 1)), "xi[z]",
        "- g[xy] + eta[x] eta[y] -> xy", False,
    ),
    ConditionKind.S_DOT_W2: Condition(
        "W2", _EIGHT_TERM, 1, ((0, 1), (2, 1)), "eta[a] xi[w]", _SKEW_SHAPE, False
    ),
}


def _residual_components(terms, s, op: Tensor, ricci_tensor: Tensor, paired, out: str):
    """Components of the residual `terms` with every term times `paired`."""
    spec = " ".join(f"{term} {paired}" for term in terms) + f" -> {out}"
    return contract(spec, op=op, S=ricci_tensor, xi=s.xi, eta=s.eta)


def condition_residual(
    kind: ConditionKind, s: ParacontactStructure, op: Tensor, ricci_tensor: Tensor
) -> Tensor:
    """Full residual of the kind, whose operator `op` is R or W2 as its row names."""
    terms = CONDITIONS[kind].terms
    r, k, out = (1, 4, "axyzw") if terms is _EIGHT_TERM else (0, 3, "xyz")
    comps = _residual_components(terms, s, op, ricci_tensor, "", out)
    return Tensor.build(s.frame, r, k, comps)


def condition_residual_xi_paired(
    kind: ConditionKind, s: ParacontactStructure, full: Tensor
) -> Tensor:
    """(0,4) inner product of the eight-term residual `full` with xi."""
    if CONDITIONS[kind].terms is not _EIGHT_TERM:
        raise ValenceError("xi pairing applies to the eight-term conditions")
    comps = contract("eta[a] F[axyzw] -> xyzw", eta=s.eta, F=full)
    return Tensor.build(s.frame, 0, 4, comps)


def theorem_expected(
    kind: ConditionKind, n: int
) -> frozenset[tuple[Rational, Rational]]:
    """Exact (lambda, mu) solution sets: (2n - r, r) for each mu-root r."""
    if n < 1:
        raise ValueError("n must be at least 1")
    roots = (Rational(a * n + b) for a, b in CONDITIONS[kind].roots)
    return frozenset((2 * n - r, r) for r in roots)


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
    cond = CONDITIONS[kind]
    vanishes = residual.is_zero()
    problem = None
    if cond.terms is _EIGHT_TERM:
        paired = condition_residual_xi_paired(kind, s, residual)
        if paired.is_zero() != vanishes:
            problem = (
                "full residual and xi-paired residual disagree:"
                f" {vanishes} vs {paired.is_zero()}"
            )
    expected = (sol.lam, sol.mu) in theorem_expected(kind, s.n)
    claimed = vanishes or cond.converse  # the proven directions
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
    def __init__(self, polynomial: ScalarExpr, scale: Rational, roots: tuple):
        self.polynomial = polynomial  # integer-primitive polynomial in mu
        self.scale = scale  # residual = scale * polynomial * shape
        self.roots = roots  # the mu-roots the polynomial was built from, ascending


def _factor(sign: int, roots, symbols: tuple[str, ...]) -> ScalarExpr:
    """sign * prod(mu - r) over the roots r, a polynomial in mu over `symbols`."""
    mu = ScalarExpr.coordinate("mu", symbols)
    poly = ScalarExpr.const(sign, symbols)
    for r in roots:
        poly = poly * (mu - r)
    return poly


@functools.lru_cache(maxsize=None)
def _generic(n: int):
    """Warped structure with symbolic mu and the matching symbolic Ricci."""
    from parakenmotsu.fixtures import build_warped  # only the factor checks read it

    s = build_warped(n, params=("mu",))
    conn = koszul_connection(s.frame)
    riem = riemann(conn, verify=False)
    mu = s.chart.coordinate("mu")
    comps = contract(
        "a g[ij] + b eta[i] eta[j] -> ij",
        a=mu - (2 * n + 1), g=s.metric(), b=s.chart.const(1) - mu, eta=s.eta,
    )
    ricci_sym = Tensor.build(s.frame, 0, 2, comps)
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
        scaled = value * (1 / coefficient.as_rational())
        if poly is None:
            poly = scaled
        elif poly != scaled:
            raise FactorError("residual is not a scalar multiple of the shape")
    if poly is None:
        raise FactorError("shape tensor is identically zero")
    return poly


def _matched(raw: ScalarExpr, sign: int, roots) -> FactorResult:
    """raw as scale * sign * prod(mu - r) over the roots r, for a rational scale.

    The scale is the ratio of the two leading coefficients; raw must then
    equal scale times the target as a ring element.
    """
    if raw.is_zero():
        raise FactorError(f"degenerate factor {raw}")
    roots = tuple(sorted(roots))
    target = _factor(sign, roots, raw.symbols)
    lead = raw.terms[-1].coeff
    scale = Rational(lead.numerator, lead.denominator) / target.terms[-1].coeff
    if raw != target * scale:
        raise FactorError(
            f"extracted factor {raw} is not proportional to the advertised one"
        )
    return FactorResult(target, scale, roots)


def symbolic_factor_check(kind: ConditionKind, n: int) -> FactorResult:
    """Extract the condition's scalar factor on the generic structure.

    Builds the symbolic Ricci tensor with lambda eliminated through
    lambda + mu = 2n, evaluates the condition residual, divides out the
    fixed rational shape, and matches the resulting polynomial in mu
    against the advertised factor up to a rational constant.
    """
    s, conn, riem, mu, ricci_sym, q_sym = _generic(n)
    cond = CONDITIONS[kind]
    op = _generic_w2(n) if cond.operator == "W2" else riem
    out = cond.shape.partition("->")[2].strip()
    values = _residual_components(cond.terms, s, op, ricci_sym, cond.paired, out)
    raw = _ratio_against_shape(values, contract(cond.shape, **s.operands()))
    return _matched(raw, cond.sign, (r for _, r in theorem_expected(kind, n)))


def phi_ricci_prefactor(n: int) -> FactorResult:
    """Factor of phi^2((nabla_X Q)Y) against eta(Y)[X - eta(X) xi]."""
    s, conn, riem, mu, ricci_sym, q_sym = _generic(n)
    image = contract(
        "phi[ab] phi[bm] nq[imj] -> ija", phi=s.phi, nq=conn.nabla(q_sym)
    )
    shape = contract("eta[j] delta[ia] - eta[j] eta[i] xi[a] -> ija", **s.operands())
    raw = _ratio_against_shape(image, shape)
    return _matched(raw, 1, (1,))


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
    alpha = _deformation(s, ricci_tensor, 2 * sol.mu)
    problem = _first_non_parallel(conn, alpha)
    if problem is None:
        try:
            on_xi = contract("a[ij] xi[i] xi[j] ->", a=alpha, xi=s.xi)
            lam = -_as_rational(on_xi, NotMultiple, "alpha(xi, xi)") / 2
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
    if _first_non_parallel(conn, _deformation(s, ricci_tensor)) is None:
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
