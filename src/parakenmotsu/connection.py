"""Levi-Civita connection of a frame, solved from the Koszul formula.

The connection is stored through its frame coefficients,

    nabla_{E_i} E_j = sum_k gamma[i][j][k] * E_k,

obtained by evaluating 2 g(nabla_X Y, Z) on frame triples and contracting
with the inverse gram matrix.  The only divisions involved are by the
rational 2 and by the gram determinant, so everything stays inside the
scalar ring.  Both defining invariants (zero torsion and metric
compatibility) are re-checked symbolically after construction.  Every
frame-index sum is one `geometry.contract` call.

The covariant derivative is one derivation of the tensor algebra: along X
it is fixed by X(f) on functions and by nabla_X E_j on the frame, and
`geometry.leibniz_spec` expands it over a tensor of any valence.  Vectors,
one-forms, phi, the metric and Q all go through that one spec, along a
single field (`nabla_tensor`) or along every frame member at once
(`nabla`).  The Lie derivative in `curvature` is the same derivation with
the table of [X, E_j].
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
    derive_along,
    leibniz_spec,
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

    def nabla(self, t: Tensor) -> tuple[ScalarExpr, ...]:
        """Components of nabla T, the direction index first."""
        return contract(
            leibniz_spec(t.r, t.s, directed=True),
            dt=derivatives(self.frame.members, t.components),
            c=self.gamma,
            t=t,
        )

    def nabla_tensor_dir(self, t: Tensor, i: int) -> Tensor:
        """nabla_{E_i} T for T of valence (0, s) or (1, s)."""
        return derive_along(t, self.frame.members[i], self.gamma[i])

    def nabla_tensor(self, t: Tensor, x: VectorField) -> Tensor:
        """nabla_X T for T of valence (0, s) or (1, s)."""
        along = contract(
            "x[i] gam[ijm] -> jm", x=self.frame.to_frame(x), gam=self.gamma
        )
        return derive_along(t, x, along)

    def nabla_frame_components(
        self, i: int, comps: Sequence[ScalarExpr]
    ) -> tuple[ScalarExpr, ...]:
        """Frame components of nabla_{E_i} applied to sum(comps[j] E_j)."""
        vector = Tensor(self.frame, 1, 0, tuple(comps))
        return self.nabla_tensor_dir(vector, i).components

    def nabla_vv(self, x: VectorField, y: VectorField) -> VectorField:
        """nabla_X Y for arbitrary vector fields."""
        frame = self.frame
        vector = Tensor(frame, 1, 0, frame.to_frame(y))
        return frame.from_frame(self.nabla_tensor(vector, x).components)

    def nabla_oneform(self, omega: OneForm, x: VectorField) -> OneForm:
        """(nabla_X omega)(Y) = X(omega(Y)) - omega(nabla_X Y)."""
        frame = self.frame
        as_tensor = Tensor(frame, 0, 1, omega.components)
        return OneForm(frame, self.nabla_tensor(as_tensor, x).components)


def koszul_connection(frame: Frame) -> FrameConnection:
    """Solve the Koszul formula on frame triples, then check both invariants.

    2 g(nabla_X Y, Z) = X(g(Y,Z)) + Y(g(Z,X)) - Z(g(X,Y))
                        - g(X,[Y,Z]) + g(Y,[Z,X]) + g(Z,[X,Y])
    """
    d = frame.dim
    g = frame.metric_tensor()
    # K[i, j, l] = 2 g(nabla_{E_i} E_j, E_l)
    K = contract(
        "dg[ijl] + dg[jli] - dg[lij] - g[im] c[jlm] + g[jm] c[lim] + g[lm] c[ijm]"
        " -> ijl",
        dg=derivatives(frame.members, g.components),
        g=g,
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
    _verify_connection(conn, g)
    return conn


def _verify_connection(conn: FrameConnection, g: Tensor) -> None:
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
    for (i, j, k), value in zip(index, conn.nabla(g)):
        if not value.is_zero():
            raise ConnectionError_(
                f"metric compatibility fails at ({i},{j},{k}): {value}"
            )
