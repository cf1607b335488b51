"""Levi-Civita connection of a frame, solved from the Koszul formula.

The connection is stored through its frame coefficients,

    nabla_{E_i} E_j = sum_k gamma[ijk] * E_k,

obtained by evaluating 2 g(nabla_X Y, Z) on frame triples and contracting
with the metric, which in a pseudo-orthonormal frame is diag(signs) and
its own inverse; gamma is that contraction's `Components`.  The only
division involved is by the rational 2, so everything stays inside the
scalar ring.  Both defining invariants (zero torsion and metric
compatibility) are re-checked symbolically after construction.  Every
frame-index sum, the directional derivatives of components included, is
one `geometry.contract` call.

The covariant derivative is one derivation of the tensor algebra: along X
it is fixed by X(f) on functions and by nabla_X E_j on the frame, and
`geometry.leibniz_spec` expands it over a tensor of any valence.  Vectors,
one-forms (valence (0,1) tensors), phi, the metric and Q all go through
`nabla`, which differentiates along every frame member at once
(`geometry.derivatives`); the derivative along a vector X = x^i E_i is
the contraction x[i] nt[i...].
The Lie derivative in `curvature` is the same derivation with the table
of [X, E_j].
"""

from __future__ import annotations

from fractions import Fraction

from parakenmotsu.geometry import (
    Components,
    Frame,
    Tensor,
    contract,
    derivatives,
    leibniz_spec,
)
from parakenmotsu.scalar import ScalarExpr


class ConnectionError_(ValueError):
    """Raised when a constructed connection violates a defining invariant."""


class FrameConnection:
    def __init__(self, frame: Frame, gamma: Components):
        self.frame = frame
        self.gamma = gamma

    def coefficient(self, i: int, j: int, k: int) -> ScalarExpr:
        """Coefficient of E_k in nabla_{E_i} E_j."""
        return self.gamma[i, j, k]

    def nabla(self, t: Tensor) -> Components:
        """Components of nabla T, the direction index first."""
        return contract(
            leibniz_spec(t.r, t.s, directed=True),
            dt=derivatives(self.frame, t.components),
            c=self.gamma,
            t=t,
        )


def koszul_connection(frame: Frame) -> FrameConnection:
    """Solve the Koszul formula on frame triples, then check both invariants.

    2 g(nabla_X Y, Z) = X(g(Y,Z)) + Y(g(Z,X)) - Z(g(X,Y))
                        - g(X,[Y,Z]) + g(Y,[Z,X]) + g(Z,[X,Y])

    On frame members the first three terms vanish: g = diag(signs) is
    constant.
    """
    g = frame.metric_tensor()
    # K[i, j, l] = 2 g(nabla_{E_i} E_j, E_l)
    K = contract(
        "g[lm] c[ijm] + g[jm] c[lim] - g[im] c[jlm] -> ijl", g=g, c=frame.structure_constants()
    )
    gamma = contract("half g[kl] K[ijl] -> ijk", half=Fraction(1, 2), g=g, K=K)
    conn = FrameConnection(frame, gamma)
    _verify_connection(conn, g)
    return conn


def _verify_connection(conn: FrameConnection, g: Tensor) -> None:
    frame = conn.frame
    torsion = contract(
        "gam[ijk] - gam[jik] - c[ijk] -> ijk", gam=conn.gamma, c=frame.structure_constants()
    ).nonzero()
    if torsion:
        (i, j, k), value = torsion[0]
        raise ConnectionError_(f"torsion does not vanish at ({i},{j},{k}): {value}")
    nonmetric = conn.nabla(g).nonzero()
    if nonmetric:
        (i, j, k), value = nonmetric[0]
        raise ConnectionError_(f"metric compatibility fails at ({i},{j},{k}): {value}")
