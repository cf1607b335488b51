"""Curvature tensors, Lie derivatives, and the Nijenhuis torsion.

Index layout for a (1,3) curvature tensor T: T[a, i, j, k] is the
coefficient of E_a in T(E_i, E_j)E_k.  The curvature convention is

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z,

and the Ricci trace S(X,Y) = sum_i eps_i g(R(E_i,X)Y, E_i) over a
pseudo-orthonormal frame with signs eps_i.  This pairing is the one
under which the warped fixtures have S = -2n g.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from parakenmotsu.connection import FrameConnection
from parakenmotsu.geometry import (
    Frame,
    OneForm,
    Tensor,
    ValenceError,
    VectorField,
    bracket,
    contract,
    derivatives,
)
from parakenmotsu.scalar import ScalarExpr


class CurvatureError(ValueError):
    """Raised when a computed curvature tensor violates an invariant."""


def riemann(conn: FrameConnection, verify: bool = True) -> Tensor:
    """(1,3) curvature tensor of the connection, in frame components."""
    frame = conn.frame
    gamma = conn.gamma
    flat = [c for plane in gamma for row in plane for c in row]
    comps = contract(
        "dgam[ijka] - dgam[jika] + gam[jkm] gam[ima] - gam[ikm] gam[jma]"
        " - c[ijm] gam[mka] -> aijk",
        dgam=derivatives(frame.members, flat),  # [i, j, k, a] = E_i(gamma[j][k][a])
        gam=gamma,
        c=frame.brackets(),
    )
    riem = Tensor.build(frame, 1, 3, comps)
    if verify:
        _verify_riemann(riem)
    return riem


def _verify_riemann(riem: Tensor) -> None:
    frame = riem.frame
    index = list(itertools.product(range(frame.dim), repeat=4))
    antisymmetry = contract("R[aijk] + R[ajik] -> aijk", R=riem)
    bianchi = contract("R[aijk] + R[ajki] + R[akij] -> aijk", R=riem)
    for (a, i, j, k), anti, cyc in zip(index, antisymmetry, bianchi):
        if j < i:
            continue
        if not anti.is_zero():
            raise CurvatureError(f"curvature not antisymmetric at ({a},{i},{j},{k})")
        if not cyc.is_zero():
            raise CurvatureError(f"first Bianchi identity fails at ({a},{i},{j},{k})")

    # g(R(E_i,E_j)E_k, E_l) - g(R(E_k,E_l)E_i, E_j)
    pairs = contract("g[la] R[aijk] - g[ja] R[akli] -> ijkl", g=frame.gram, R=riem)
    for (i, j, k, l), value in zip(index, pairs):
        if j > i and l > k and not value.is_zero():
            raise CurvatureError(f"pair symmetry fails at ({i},{j},{k},{l})")


def ricci(riem: Tensor, verify: bool = True) -> Tensor:
    """Ricci tensor S(X,Y) = sum_i eps_i g(R(E_i,X)Y, E_i).

    With the diagonal +1/-1 gram the metric pairing contributes the same
    sign eps_i, so the component formula collapses to sum_i R[i,i,j,k].
    """
    frame = riem.frame
    d = frame.dim
    frame.gram_signs()
    s = Tensor.build(frame, 0, 2, contract("R[iijk] -> jk", R=riem))
    if verify:
        for j in range(d):
            for k in range(j + 1, d):
                if not (s[j, k] - s[k, j]).is_zero():
                    raise CurvatureError(f"Ricci tensor not symmetric at ({j},{k})")
    return Tensor(frame, 0, 2, s.components, symmetric=True)


def ricci_operator(s: Tensor) -> Tensor:
    """(1,1) operator Q with g(QX, Y) = S(X, Y)."""
    if s.r != 0 or s.s != 2:
        raise ValenceError("ricci_operator expects a (0,2) tensor")
    comps = contract("ginv[am] S[mb] -> ab", ginv=s.frame.gram_inverse(), S=s)
    return Tensor.build(s.frame, 1, 1, comps)


def w2_tensor(riem: Tensor, q: Tensor, n: int) -> Tensor:
    """W2(X,Y)Z = R(X,Y)Z + (1/2n) [g(X,Z) QY - g(Y,Z) QX]."""
    if n < 1:
        raise ValueError("w2_tensor needs n >= 1")
    frame = riem.frame
    comps = contract(
        "R[aijk] + c g[ik] Q[aj] - c g[jk] Q[ai] -> aijk",
        R=riem,
        c=Fraction(1, 2 * n),
        g=frame.gram,
        Q=q,
    )
    return Tensor.build(frame, 1, 3, comps)


def scalar_curvature(q: Tensor) -> ScalarExpr:
    """Trace of the Ricci operator."""
    if q.r != 1 or q.s != 1:
        raise ValenceError("scalar_curvature expects a (1,1) tensor")
    return contract("Q[aa] ->", Q=q)


def lie_derivative(x: VectorField, t):
    """Lie derivative along X of a (0,2) tensor, a one-form, or a (1,1) tensor."""
    if isinstance(t, OneForm):
        return _lie_oneform(x, t)
    if isinstance(t, Tensor) and (t.r, t.s) == (0, 2):
        return _lie_covariant2(x, t)
    if isinstance(t, Tensor) and (t.r, t.s) == (1, 1):
        return _lie_endomorphism(x, t)
    raise ValenceError("lie_derivative supports (0,2), (1,1), and one-forms")


def _bracket_table(frame: Frame, x: VectorField) -> list[tuple[ScalarExpr, ...]]:
    """Frame components of [X, E_i] for every i."""
    return [frame.to_frame(bracket(x, e)) for e in frame.members]


def _lie_covariant2(x: VectorField, t: Tensor) -> Tensor:
    frame = t.frame
    comps = contract(
        "dt[ij] - b[im] t[mj] - t[im] b[jm] -> ij",
        dt=derivatives((x,), t.components),
        b=_bracket_table(frame, x),
        t=t,
    )
    return Tensor.build(frame, 0, 2, comps)


def _lie_oneform(x: VectorField, omega: OneForm) -> OneForm:
    frame = omega.frame
    comps = contract(
        "dw[i] - b[im] w[m] -> i",
        dw=derivatives((x,), omega.components),
        b=_bracket_table(frame, x),
        w=omega.components,
    )
    return OneForm(frame, comps)


def _lie_endomorphism(x: VectorField, t: Tensor) -> Tensor:
    """(L_X T)(Y) = [X, T(Y)] - T([X, Y])."""
    frame = t.frame
    d = frame.dim
    # [X, T(E_i)] for every i; column i of T holds T(E_i)
    first = [
        frame.to_frame(bracket(x, frame.from_frame(t.components[i::d])))
        for i in range(d)
    ]
    comps = contract(
        "f[ia] - b[im] t[am] -> ai", f=first, b=_bracket_table(frame, x), t=t
    )
    return Tensor.build(frame, 1, 1, comps)


def nijenhuis(phi: Tensor) -> Tensor:
    """N(X,Y) = phi^2 [X,Y] + [phi X, phi Y] - phi [phi X, Y] - phi [X, phi Y]."""
    if phi.r != 1 or phi.s != 1:
        raise ValenceError("nijenhuis expects a (1,1) tensor")
    frame = phi.frame
    d = frame.dim
    members = frame.members
    images = [frame.from_frame(phi.components[i::d]) for i in range(d)]

    def table(left, right):
        """Frame components of [left[i], right[j]], nested [i][j]."""
        return [[frame.to_frame(bracket(u, v)) for v in right] for u in left]

    comps = contract(
        "phi[am] phi[mb] c[ijb] + pp[ija] - phi[am] pe[ijm] - phi[am] ep[ijm]"
        " -> aij",
        phi=phi,
        c=frame.brackets(),
        pp=table(images, images),
        pe=table(images, members),
        ep=table(members, images),
    )
    return Tensor.build(frame, 1, 2, comps)
