"""Curvature tensors, Lie derivatives, and the Nijenhuis torsion.

Index layout for a (1,3) curvature tensor T: T[a, i, j, k] is the
coefficient of E_a in T(E_i, E_j)E_k.  The curvature convention is

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z,

and the Ricci trace S(X,Y) = sum_i eps_i g(R(E_i,X)Y, E_i) over a
pseudo-orthonormal frame with signs eps_i.  This pairing is the one
under which the warped fixtures have S = -2n g.

Lie brackets never leave frame components.  With the structure constants
[E_i, E_j] = c[ijk] E_k from `Frame.structure_constants` and the frame
derivatives E_i(f) of the components (`geometry.derivatives`, one
contraction with the member matrix), the bracket of two frame-expanded
fields is

    [f E_i, h E_j] = f h c[ijk] E_k + f E_i(h) E_j - h E_j(f) E_i,

so `nijenhuis` is a single contraction over c, the components and their
derivatives.  A vector X, xi included, is given by its frame components.

L_X is the same derivation of the tensor algebra as the covariant
derivative nabla_X, with the table of [X, E_j] in place of nabla_X E_j:
both contract `geometry.leibniz_spec`, so a tensor of any valence, a
one-form (a (0,1) tensor) included, takes the same Leibniz expansion.
"""

from __future__ import annotations

from parakenmotsu.connection import FrameConnection
from parakenmotsu.geometry import (
    Components,
    Frame,
    Tensor,
    ValenceError,
    contract,
    derivatives,
    leibniz_spec,
)
from parakenmotsu.scalar import Rational


class CurvatureError(ValueError):
    """Raised when a computed curvature tensor violates an invariant."""


def riemann(conn: FrameConnection, verify: bool = True) -> Tensor:
    """(1,3) curvature tensor of the connection, in frame components."""
    frame = conn.frame
    comps = contract(
        "dgam[ijka] - dgam[jika] + gam[jkm] gam[ima] - gam[ikm] gam[jma]"
        " - c[ijm] gam[mka] -> aijk",
        dgam=derivatives(frame, conn.gamma),  # [i, j, k, a] = E_i(gamma[jka])
        gam=conn.gamma,
        c=frame.structure_constants,
    )
    riem = Tensor.build(frame, 1, 3, comps)
    if verify:
        _verify_riemann(riem)
    return riem


def _verify_riemann(riem: Tensor) -> None:
    frame = riem.frame
    anti = contract("R[aijk] + R[ajik] -> aijk", R=riem).nonzero()
    cyc = contract("R[aijk] + R[ajki] + R[akij] -> aijk", R=riem).nonzero()
    # the first failure at an (a, i, j, k) with i <= j in row-major order,
    # the antisymmetry first at one index
    failures = [(at, 0) for at, _ in anti] + [(at, 1) for at, _ in cyc]
    failures = [(at, order) for at, order in failures if at[1] <= at[2]]
    if failures:
        (a, i, j, k), order = min(failures)
        text = ("curvature not antisymmetric", "first Bianchi identity fails")[order]
        raise CurvatureError(f"{text} at ({a},{i},{j},{k})")

    # g(R(E_i,E_j)E_k, E_l) - g(R(E_k,E_l)E_i, E_j)
    g = frame.metric_tensor
    pairs = contract("g[la] R[aijk] - g[ja] R[akli] -> ijkl", g=g, R=riem)
    for (i, j, k, l), _ in pairs.nonzero():
        if j > i and l > k:
            raise CurvatureError(f"pair symmetry fails at ({i},{j},{k},{l})")


def ricci(riem: Tensor) -> Tensor:
    """Ricci tensor S(X,Y) = sum_i eps_i g(R(E_i,X)Y, E_i), checked symmetric.

    In a pseudo-orthonormal frame the metric pairing contributes the same
    sign eps_i, so the component formula collapses to sum_i R[i,i,j,k].
    """
    s = Tensor.build(riem.frame, 0, 2, contract("R[iijk] -> jk", R=riem))
    # the skew part's first nonzero entry in row-major order has j < k
    skew = contract("S[jk] - S[kj] -> jk", S=s).nonzero()
    if skew:
        (j, k), _ = skew[0]
        raise CurvatureError(f"Ricci tensor not symmetric at ({j},{k})")
    return s


def ricci_operator(s: Tensor) -> Tensor:
    """(1,1) operator Q with g(QX, Y) = S(X, Y)."""
    if s.r != 0 or s.s != 2:
        raise ValenceError("ricci_operator expects a (0,2) tensor")
    comps = contract("g[am] S[mb] -> ab", g=s.frame.metric_tensor, S=s)
    return Tensor.build(s.frame, 1, 1, comps)


def w2_tensor(riem: Tensor, q: Tensor, n: int) -> Tensor:
    """W2(X,Y)Z = R(X,Y)Z + (1/2n) [g(X,Z) QY - g(Y,Z) QX]."""
    if n < 1:
        raise ValueError("w2_tensor needs n >= 1")
    frame = riem.frame
    comps = contract(
        "R[aijk] + c g[ik] Q[aj] - c g[jk] Q[ai] -> aijk",
        R=riem,
        c=Rational(1, 2 * n),
        g=frame.metric_tensor,
        Q=q,
    )
    return Tensor.build(frame, 1, 3, comps)


def lie_derivative(x: Components, t: Tensor) -> Tensor:
    """L_X of a tensor along X = x^m E_m: the derivation with L_X E_j = [X, E_j]."""
    if not isinstance(t, Tensor):
        raise ValenceError("lie_derivative takes a Tensor")
    frame, letters = t.frame, "abcdefgh"[: t.rank]
    dt = contract(
        f"x[m] d[m{letters}] -> {letters}", x=x, d=derivatives(frame, t.components)
    )
    comps = contract(leibniz_spec(t.r, t.s), dt=dt, c=_bracket_table(frame, x), t=t)
    return Tensor.build(frame, t.r, t.s, comps)


def _bracket_table(frame: Frame, x: Components) -> Components:
    """Frame components b[i, k] of [X, E_i], from X = x^m E_m and c[m i k]."""
    return contract(
        "x[m] c[mik] - dx[ik] -> ik",
        x=x,
        c=frame.structure_constants,
        dx=derivatives(frame, x),  # [i, k] = E_i(x^k)
    )


def nijenhuis(phi: Tensor) -> Tensor:
    """N(X,Y) = phi^2 [X,Y] + [phi X, phi Y] - phi [phi X, Y] - phi [X, phi Y].

    With phi E_i = phi^p_i E_p, each bracket expands by the product rule:
    [phi E_i, phi E_j] = phi^p_i phi^q_j c[pq.] + phi^p_i E_p(phi^._j)
    - phi^q_j E_q(phi^._i), and likewise for the two mixed brackets.
    """
    if phi.r != 1 or phi.s != 1:
        raise ValenceError("nijenhuis expects a (1,1) tensor")
    frame = phi.frame
    comps = contract(
        "phi[am] phi[mb] c[ijb]"
        " + phi[pi] phi[qj] c[pqa] + phi[pi] dphi[paj] - phi[qj] dphi[qai]"
        " - phi[am] phi[pi] c[pjm] + phi[am] dphi[jmi]"
        " - phi[am] phi[qj] c[iqm] - phi[am] dphi[imj]"
        " -> aij",
        phi=phi,
        c=frame.structure_constants,
        dphi=derivatives(frame, phi.components),  # [p, a, j] = E_p(phi^a_j)
    )
    return Tensor.build(frame, 1, 2, comps)
