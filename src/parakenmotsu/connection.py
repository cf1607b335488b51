"""Levi-Civita connection of a frame, solved from the Koszul formula.

The connection is stored through its frame coefficients,

    nabla_{E_i} E_j = sum_k gamma[i][j][k] * E_k,

obtained by evaluating 2 g(nabla_X Y, Z) on frame triples and contracting
with the inverse gram matrix.  The only divisions involved are by the
rational 2 and by the gram determinant, so everything stays inside the
scalar ring.  Both defining invariants (zero torsion and metric
compatibility) are re-checked symbolically after construction.  Every
frame-index sum is one `geometry.contract` call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from parakenmotsu.geometry import (
    Frame,
    OneForm,
    Tensor,
    VectorField,
    contract,
    derivatives,
)
from parakenmotsu.scalar import ScalarExpr


class ConnectionError_(ValueError):
    """Raised when a constructed connection violates a defining invariant."""


class FrameConnection:
    def __init__(
        self, frame: Frame, gamma: tuple[tuple[tuple[ScalarExpr, ...], ...], ...]
    ):
        self.frame = frame
        self.gamma = gamma

    def coefficient(self, i: int, j: int, k: int) -> ScalarExpr:
        """Coefficient of E_k in nabla_{E_i} E_j."""
        return self.gamma[i][j][k]

    def nabla_frame_components(
        self, i: int, comps: Sequence[ScalarExpr]
    ) -> tuple[ScalarExpr, ...]:
        """Frame components of nabla_{E_i} applied to sum(comps[j] E_j)."""
        return contract(
            "dv[a] + v[m] gam[ma] -> a",
            dv=derivatives((self.frame.members[i],), comps),
            v=comps,
            gam=self.gamma[i],
        )

    def nabla_vv(self, x: VectorField, y: VectorField) -> VectorField:
        """nabla_X Y for arbitrary vector fields."""
        frame = self.frame
        yf = frame.to_frame(y)
        out = contract(
            "dy[a] + x[i] y[m] gam[ima] -> a",
            dy=derivatives((x,), yf),
            x=frame.to_frame(x),
            y=yf,
            gam=self.gamma,
        )
        return frame.from_frame(out)

    # -- covariant derivatives of tensors --------------------------------

    def nabla_tensor_dir(self, t: Tensor, i: int) -> Tensor:
        """nabla_{E_i} T for T of valence (0, s) or (1, s)."""
        return self._nabla_along(t, self.frame.members[i], self.gamma[i])

    def nabla_tensor(self, t: Tensor, x: VectorField) -> Tensor:
        """nabla_X T for T of valence (0, s) or (1, s)."""
        along = contract(
            "x[i] gam[ijm] -> jm", x=self.frame.to_frame(x), gam=self.gamma
        )
        return self._nabla_along(t, x, along)

    def _nabla_along(self, t: Tensor, x: VectorField, along) -> Tensor:
        """nabla_X T, with along[j][m] the coefficient of E_m in nabla_X E_j."""
        letters = "abcdefghijklmnopqrstuvwxy"[: t.rank]
        terms = [f"dt[{letters}]"]
        for p, l in enumerate(letters):
            moved = f"t[{letters[:p]}z{letters[p + 1:]}]"
            terms.append(f"+ c[z{l}] {moved}" if p < t.r else f"- c[{l}z] {moved}")
        comps = contract(
            " ".join(terms) + f" -> {letters}",
            dt=derivatives((x,), t.components),
            c=along,
            t=t,
        )
        return Tensor.build(self.frame, t.r, t.s, comps)

    def nabla_oneform(self, omega: OneForm, x: VectorField) -> OneForm:
        """(nabla_X omega)(Y) = X(omega(Y)) - omega(nabla_X Y)."""
        frame = self.frame
        as_tensor = Tensor(frame, 0, 1, omega.components)
        derived = self.nabla_tensor(as_tensor, x)
        return OneForm(frame, derived.components)


def _gram_derivatives(frame: Frame) -> tuple[ScalarExpr, ...]:
    """E_i(g(E_j, E_k)), row-major over (i, j, k)."""
    return derivatives(frame.members, [c for row in frame.gram for c in row])


def koszul_connection(frame: Frame, verify: bool = True) -> FrameConnection:
    """Solve the Koszul formula on frame triples.

    2 g(nabla_X Y, Z) = X(g(Y,Z)) + Y(g(Z,X)) - Z(g(X,Y))
                        - g(X,[Y,Z]) + g(Y,[Z,X]) + g(Z,[X,Y])
    """
    d = frame.dim
    # K[i, j, l] = 2 g(nabla_{E_i} E_j, E_l)
    K = contract(
        "dg[ijl] + dg[jli] - dg[lij] - g[im] c[jlm] + g[jm] c[lim] + g[lm] c[ijm]"
        " -> ijl",
        dg=_gram_derivatives(frame),
        g=frame.gram,
        c=frame.brackets(),
    )
    flat = contract(
        "half ginv[kl] K[ijl] -> ijk",
        half=Fraction(1, 2),
        ginv=frame.gram_inverse(),
        K=K,
    )
    gamma = tuple(
        tuple(flat[(i * d + j) * d : (i * d + j + 1) * d] for j in range(d))
        for i in range(d)
    )
    conn = FrameConnection(frame, gamma)
    if verify:
        _verify_connection(conn)
    return conn


def _verify_connection(conn: FrameConnection) -> None:
    frame = conn.frame
    index = list(itertools.product(range(frame.dim), repeat=3))
    torsion = contract(
        "gam[ijk] - gam[jik] - c[ijk] -> ijk", gam=conn.gamma, c=frame.brackets()
    )
    for (i, j, k), value in zip(index, torsion):
        if not value.is_zero():
            raise ConnectionError_(
                f"torsion does not vanish at ({i},{j},{k}): {value}"
            )
    compatibility = contract(
        "dg[ijk] - gam[ijm] g[mk] - g[jm] gam[ikm] -> ijk",
        dg=_gram_derivatives(frame),
        gam=conn.gamma,
        g=frame.gram,
    )
    for (i, j, k), value in zip(index, compatibility):
        if not value.is_zero():
            raise ConnectionError_(
                f"metric compatibility fails at ({i},{j},{k}): {value}"
            )
