"""Almost paracontact metric structures and the defining identity suites.

A structure packages the frame together with the endomorphism phi (a
(1,1) tensor in frame components), the distinguished unit vector field
xi, and its metric-dual one-form eta (a (0,1) tensor).  All checks
below are exact: a check passes only when the residual normalizes to the
zero element of the scalar ring, and a failing check carries the first
nonzero residual as a printable witness instead of aborting the run.
Most checks are one `geometry.contract` spec whose every component must
vanish.
"""

from __future__ import annotations

from parakenmotsu.connection import FrameConnection
from parakenmotsu.curvature import lie_derivative, nijenhuis, riemann
from parakenmotsu.geometry import (
    Components,
    Frame,
    Tensor,
    ValenceError,
    VectorField,
    contract,
    exterior_derivative,
    mat_rank,
)
from parakenmotsu.report import CheckReport, report_from_failures


class ParacontactStructure:
    def __init__(
        self, frame: Frame, phi: Tensor, xi: VectorField, eta: Tensor, n: int
    ):
        if (phi.r, phi.s) != (1, 1):
            raise ValenceError("phi must be a (1,1) tensor")
        if (eta.r, eta.s) != (0, 1):
            raise ValenceError("eta must be a (0,1) tensor")
        if frame.dim != 2 * n + 1:
            raise ValenceError(f"dimension {frame.dim} does not equal 2n+1 for n={n}")
        self.frame = frame
        self.phi = phi
        self.xi = xi
        self.eta = eta
        self.n = n
        self._cache: dict = {}

    @property
    def chart(self):
        return self.frame.chart

    @property
    def dim(self) -> int:
        return self.frame.dim

    def metric(self) -> Tensor:
        return self.frame.metric_tensor()

    def lie_metric(self) -> Tensor:
        """L_xi g, read by the soliton solver, I12, T1 and T2."""
        if "lie_g" not in self._cache:
            self._cache["lie_g"] = lie_derivative(self.xi, self.metric())
        return self._cache["lie_g"]

    def xi_components(self) -> Components:
        if "xi" not in self._cache:
            self._cache["xi"] = self.frame.to_frame(self.xi)
        return self._cache["xi"]

    def eta_square(self) -> Tensor:
        """The (0,2) tensor eta tensor eta."""
        if "ee" not in self._cache:
            eta = self.eta
            self._cache["ee"] = Tensor.build(self.frame, 0, 2, lambda i, j: eta[i] * eta[j])
        return self._cache["ee"]

    def operands(self) -> dict:
        """The structure's contraction operands: g, phi, eta and xi."""
        return dict(g=self.metric(), phi=self.phi, eta=self.eta, xi=self.xi_components())


def vanishing_check(
    name: str, ref: str, spec: str, operands: dict, labels: str | None = None
) -> CheckReport:
    """Pass when every component of the contraction `spec` vanishes.

    The witness is the first nonzero component in the order of the output
    letters; its index is spelled in the order of `labels` when given.
    """
    value = contract(spec, **operands)
    out = spec.partition("->")[2].strip()
    if out:
        nonzero = value.nonzero()
    else:
        nonzero = () if value.is_zero() else (((), value),)
    order = [out.index(l) for l in labels or out]
    failures = [(tuple(idx[p] for p in order), c) for idx, c in nonzero]
    return report_from_failures(name, ref, failures)


_AXIOMS = (
    ("axioms/eta-xi-pairing", "A1", "eta[m] xi[m] - 1 ->"),
    ("axioms/phi-annihilates-xi", "A2", "phi[am] xi[m] -> a"),
    ("axioms/eta-annihilates-phi", "A3", "eta[a] phi[ai] -> i"),
    ("axioms/phi-square", "A4", "phi[am] phi[mi] - delta[ai] + xi[a] eta[i] -> ai"),
    (
        "axioms/metric-phi-compatibility",
        "A5",
        "phi[mi] g[ml] phi[lj] + g[ij] - eta[i] eta[j] -> ij",
    ),
    ("axioms/phi-skew-adjoint", "A6", "phi[mi] g[mj] + g[im] phi[mj] -> ij"),
    ("axioms/eta-is-metric-dual", "A7", "eta[i] - g[im] xi[m] -> i"),
    ("axioms/unit-xi", "A8", "xi[i] g[ij] xi[j] - 1 ->"),
)


def check_axioms(s: ParacontactStructure) -> list[CheckReport]:
    """The defining axioms, each as its own named check; never aborts early."""
    frame = s.frame
    d = s.dim
    chart = s.chart
    phi = s.phi
    operands = s.operands()
    reports = [
        vanishing_check(name, ref, spec, operands) for name, ref, spec in _AXIOMS
    ]

    try:
        signs = frame.gram_signs()
        plus = sum(1 for q in signs if q == 1)
        minus = sum(1 for q in signs if q == -1)
        ok = plus == s.n + 1 and minus == s.n
        msg = f"signature ({plus}, {minus}), expected ({s.n + 1}, {s.n})"
    except ValenceError as err:
        ok, msg = False, str(err)
    reports.append(
        CheckReport.passed("axioms/signature", "A9")
        if ok
        else CheckReport.failed("axioms/signature", "A9", msg)
    )

    horizontal = [i for i in range(d) if s.eta[i].is_zero()]
    ok = len(horizontal) == 2 * s.n
    msg = f"{len(horizontal)} frame members annihilated by eta, expected {2 * s.n}"
    if ok:
        one = chart.const(1)
        minus_id = [
            [phi[a, i] - (one if a == i else chart.zero()) for i in horizontal]
            for a in horizontal
        ]
        plus_id = [
            [phi[a, i] + (one if a == i else chart.zero()) for i in horizontal]
            for a in horizontal
        ]
        r_minus = mat_rank(minus_id, chart.zero())
        r_plus = mat_rank(plus_id, chart.zero())
        ok = r_minus == s.n and r_plus == s.n
        msg = (
            f"eigendistribution ranks ({r_minus}, {r_plus}),"
            f" expected ({s.n}, {s.n})"
        )
    reports.append(
        CheckReport.passed("axioms/eigendistribution-ranks", "A10")
        if ok
        else CheckReport.failed("axioms/eigendistribution-ranks", "A10", msg)
    )
    return reports


def check_para_kenmotsu(
    s: ParacontactStructure, conn: FrameConnection
) -> CheckReport:
    """Defining condition: (nabla_X phi)Y = g(phi X, Y) xi - eta(Y) phi X."""
    return vanishing_check(
        "para-kenmotsu/covariant-phi",
        "K1",
        "nphi[iaj] - phi[mi] g[mj] xi[a] + eta[j] phi[ai] -> ija",
        dict(s.operands(), nphi=conn.nabla(s.phi)),
        labels="aij",
    )


def kenmotsu_identity_suite(
    s: ParacontactStructure,
    conn: FrameConnection,
    riem: Tensor | None = None,
) -> list[CheckReport]:
    """The fourteen structural identities satisfied by the defining condition."""
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
    ops["lie_g"] = s.lie_metric()
    ops["d_eta"] = exterior_derivative(s.eta)
    ops["nij"] = nijenhuis(s.phi)
    checks = (
        # nabla_X xi = X - eta(X) xi
        (
            "xi-covariant-derivative",
            "I1",
            "nxi[ia] - delta[ai] + eta[i] xi[a] -> ia",
            "ai",
        ),
        ("eta-of-nabla-xi", "I2", "eta[a] nxi[ia] -> i", None),
        ("xi-parallel-along-xi", "I3", "xi[i] nxi[ia] -> a", None),
        (
            "curvature-on-xi",
            "I4",
            "R[aijk] xi[k] - eta[i] delta[aj] + eta[j] delta[ai] -> aij",
            None,
        ),
        (
            "eta-of-curvature",
            "I5",
            "eta[a] R[aijk] + eta[i] g[jk] - eta[j] g[ik] -> ijk",
            None,
        ),
        ("eta-of-curvature-on-xi", "I6", "eta[a] R[aijk] xi[k] -> ij", None),
        (
            "eta-covariant-derivative",
            "I7",
            "neta[ij] - g[ij] + eta[i] eta[j] -> ij",
            None,
        ),
        ("eta-parallel-along-xi", "I8", "xi[i] neta[ij] -> j", None),
        ("lie-phi-along-xi", "I9", "lie_phi[ai] -> ai", None),
        ("lie-eta-along-xi", "I10", "lie_eta[i] -> i", None),
        ("lie-eta-square-along-xi", "I11", "lie_ee[ij] -> ij", None),
        (
            "lie-metric-along-xi",
            "I12",
            "lie_g[ij] - 2 g[ij] + 2 eta[i] eta[j] -> ij",
            None,
        ),
        ("eta-closed", "I13", "d_eta[ij] -> ij", None),
        ("nijenhuis-vanishes", "I14", "nij[aij] -> aij", None),
    )
    return [
        vanishing_check(f"identities/{name}", ref, spec, ops, labels)
        for name, ref, spec, labels in checks
    ]
