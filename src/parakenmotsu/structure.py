"""Almost paracontact metric structures and the defining identity suites.

A structure packages the frame together with the endomorphism phi (a
(1,1) tensor in frame components), the distinguished unit vector field
xi (its frame components), and its metric-dual one-form eta (a (0,1)
tensor).  All checks below are exact: a check passes only when the
residual normalizes to the zero element of the scalar ring.  A check function returns None when its
check holds and otherwise a printable witness, such as the first nonzero
residual, instead of aborting the run; `suite.CATALOG` names and tags the
checks.  Most checks are one `geometry.contract` spec whose every
component must vanish.
"""

from __future__ import annotations

from functools import cached_property

from parakenmotsu.connection import FrameConnection
from parakenmotsu.curvature import lie_derivative, nijenhuis, riemann
from parakenmotsu.geometry import (
    Components,
    Frame,
    Tensor,
    ValenceError,
    contract,
    exterior_derivative,
    mat_rank,
)
from parakenmotsu.report import witness_at


class ParacontactStructure:
    def __init__(
        self, frame: Frame, phi: Tensor, xi: Components, eta: Tensor, n: int
    ):
        if (phi.r, phi.s) != (1, 1):
            raise ValenceError("phi must be a (1,1) tensor")
        if (xi.rank, xi.dim) != (1, frame.dim):
            raise ValenceError("xi must be the frame components of a vector")
        if (eta.r, eta.s) != (0, 1):
            raise ValenceError("eta must be a (0,1) tensor")
        if frame.dim != 2 * n + 1:
            raise ValenceError(f"dimension {frame.dim} does not equal 2n+1 for n={n}")
        self.frame = frame
        self.phi = phi
        self.xi = xi
        self.eta = eta
        self.n = n

    @property
    def chart(self):
        return self.frame.chart

    @property
    def dim(self) -> int:
        return self.frame.dim

    def metric(self) -> Tensor:
        return self.frame.metric_tensor

    @cached_property
    def lie_metric(self) -> Tensor:
        """L_xi g, built once: the soliton solver, I12, T1 and T2 read it."""
        return lie_derivative(self.xi, self.metric())

    def eta_square(self) -> Tensor:
        """The (0,2) tensor eta tensor eta."""
        ee = contract("eta[i] eta[j] -> ij", eta=self.eta)
        return Tensor.build(self.frame, 0, 2, ee)

    def horizontal(self) -> list[int]:
        """The frame members that eta annihilates."""
        return [i for i in range(self.dim) if self.eta[i].is_zero()]

    @cached_property
    def eigen_ranks(self) -> tuple[int, int]:
        """Ranks of phi - I and phi + I on the `horizontal` members, built
        once: the DSL reads them when it builds the structure, then A10.

        An entry of their elimination past MAX_COEFFICIENT_TERMS raises
        TooManyTerms; the DSL reports it where the phi lines are read.
        """
        h, ranks = self.horizontal(), []
        for c in (-1, 1):
            m = contract("phi[ai] + c delta[ai] -> ai", phi=self.phi, c=c)
            ranks.append(mat_rank([[m[a, i] for i in h] for a in h], self.chart.zero()))
        return tuple(ranks)

    def operands(self) -> dict:
        """The structure's contraction operands: g, phi, eta and xi."""
        return dict(g=self.metric(), phi=self.phi, eta=self.eta, xi=self.xi)


def vanishing_check(
    spec: str, operands: dict, labels: str | None = None
) -> str | None:
    """None when every component of the contraction `spec` vanishes.

    Otherwise the witness is the first nonzero component in the order of
    the output letters; its index is spelled in the order of `labels` when
    given.
    """
    value = contract(spec, **operands)
    out = spec.partition("->")[2].strip()
    if out:
        nonzero = value.nonzero()
    else:
        nonzero = () if value.is_zero() else (((), value),)
    if not nonzero:
        return None
    idx, c = nonzero[0]
    return witness_at(tuple(idx[out.index(l)] for l in labels or out), c)


# A1-A8, in catalog order
_AXIOMS = (
    "eta[m] xi[m] - 1 ->",
    "phi[am] xi[m] -> a",
    "eta[a] phi[ai] -> i",
    "phi[am] phi[mi] - delta[ai] + xi[a] eta[i] -> ai",
    "phi[mi] g[ml] phi[lj] + g[ij] - eta[i] eta[j] -> ij",
    "phi[mi] g[mj] + g[im] phi[mj] -> ij",
    "eta[i] - g[im] xi[m] -> i",
    "xi[i] g[ij] xi[j] - 1 ->",
)


def check_axioms(s: ParacontactStructure) -> list[str | None]:
    """Witnesses of the defining axioms A1-A10; never aborts early."""
    operands = s.operands()
    witnesses = [vanishing_check(spec, operands) for spec in _AXIOMS]

    plus = s.frame.signs.count(1)
    minus = s.dim - plus
    ok = (plus, minus) == (s.n + 1, s.n)
    msg = f"signature ({plus}, {minus}), expected ({s.n + 1}, {s.n})"
    witnesses.append(None if ok else msg)

    horizontal = len(s.horizontal())
    ok = horizontal == 2 * s.n
    msg = f"{horizontal} frame members annihilated by eta, expected {2 * s.n}"
    if ok:
        r_minus, r_plus = s.eigen_ranks
        ok = r_minus == s.n and r_plus == s.n
        msg = (
            f"eigendistribution ranks ({r_minus}, {r_plus}),"
            f" expected ({s.n}, {s.n})"
        )
    witnesses.append(None if ok else msg)
    return witnesses


def check_para_kenmotsu(s: ParacontactStructure, conn: FrameConnection) -> str | None:
    """Defining condition: (nabla_X phi)Y = g(phi X, Y) xi - eta(Y) phi X."""
    return vanishing_check(
        "nphi[iaj] - phi[mi] g[mj] xi[a] + eta[j] phi[ai] -> ija",
        dict(s.operands(), nphi=conn.nabla(s.phi)),
        labels="aij",
    )


# I1-I14 as (spec, labels), in catalog order
_IDENTITIES = (
    # nabla_X xi = X - eta(X) xi
    ("nxi[ia] - delta[ai] + eta[i] xi[a] -> ia", "ai"),
    ("eta[a] nxi[ia] -> i", None),
    ("xi[i] nxi[ia] -> a", None),
    ("R[aijk] xi[k] - eta[i] delta[aj] + eta[j] delta[ai] -> aij", None),
    ("eta[a] R[aijk] + eta[i] g[jk] - eta[j] g[ik] -> ijk", None),
    ("eta[a] R[aijk] xi[k] -> ij", None),
    ("neta[ij] - g[ij] + eta[i] eta[j] -> ij", None),
    ("xi[i] neta[ij] -> j", None),
    ("lie_phi[ai] -> ai", None),
    ("lie_eta[i] -> i", None),
    ("lie_ee[ij] -> ij", None),
    ("lie_g[ij] - 2 g[ij] + 2 eta[i] eta[j] -> ij", None),
    ("d_eta[ij] -> ij", None),
    ("nij[aij] -> aij", None),
)


def kenmotsu_identity_suite(
    s: ParacontactStructure,
    conn: FrameConnection,
    riem: Tensor | None = None,
) -> list[str | None]:
    """Witnesses of the fourteen identities the defining condition implies."""
    frame = s.frame
    if riem is None:
        riem = riemann(conn, verify=False)
    ops = dict(s.operands(), R=riem)
    # [i, a]: nabla_{E_i} xi; [i, j]: (nabla_{E_i} eta)(E_j)
    ops["nxi"] = conn.nabla(Tensor(frame, 1, 0, ops["xi"]))
    ops["neta"] = conn.nabla(s.eta)
    ops["lie_phi"] = lie_derivative(s.xi, s.phi)
    ops["lie_eta"] = lie_derivative(s.xi, s.eta)
    ops["lie_ee"] = lie_derivative(s.xi, s.eta_square())
    ops["lie_g"] = s.lie_metric
    ops["d_eta"] = exterior_derivative(s.eta)
    ops["nij"] = nijenhuis(s.phi)
    return [vanishing_check(spec, ops, labels) for spec, labels in _IDENTITIES]
