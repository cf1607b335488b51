"""Frames, vector fields and tensors over an odd-dimensional chart.

Vector fields carry coordinate-basis components.  Everything else (metric,
one-forms, curvature and friends) is stored in the components of a fixed
frame, which for the structures handled here is pseudo-orthonormal: the
gram matrix of the frame is a constant diagonal of +1/-1 entries.  Inputs
given in the coordinate basis are converted once, by solving against the
frame's invertible component matrix.

Every sum over frame indices goes through one primitive, `contract`.  Its
spec is a signed sum of products of named factors, then the output
indices:

    contract("S[xm] R[myzw] xi[a] - S[xy] xi[m] R[amzw] -> axyzw",
             S=ricci, R=riem, xi=xi_components)

- A factor is `name[letters]`, one lowercase letter per frame index, with
  the operand passed as the keyword `name`: a `Tensor`, a sequence of
  frame components (flat row-major, or nested one level per index, like
  the gram matrix or the connection coefficients), or for a factor
  without brackets a `ScalarExpr` or a rational.  `delta[ij]` is the
  identity, and a bare integer such as `2` is a constant coefficient.
- A letter that is not an output index is summed over `range(d)`; a
  letter repeated inside one factor takes its diagonal.  Every term must
  carry every output index.
- Only nonzero operand components are visited.  All product terms of an
  output component are collected first and normalized once.
- The result is the tuple of components in row-major order over the
  output letters, or one `ScalarExpr` when there are none.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from parakenmotsu.scalar import NonInvertible, ScalarExpr, Term, mul_terms


class ValenceError(ValueError):
    """Raised when tensor arguments do not match the declared valence."""


Matrix = tuple[tuple[ScalarExpr, ...], ...]


@dataclass(frozen=True, slots=True)
class Chart:
    """Named coordinates plus optional constant parameters.

    The geometric dimension must be odd, 2n + 1.  Parameters behave as
    extra scalar symbols that no vector field ever differentiates along;
    they exist so that unknown constants can ride through the tensor
    algebra symbolically.
    """

    coords: tuple[str, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.coords + self.params
        if len(set(names)) != len(names):
            raise ValueError("chart symbols must be distinct")
        if len(self.coords) % 2 == 0 or not self.coords:
            raise ValueError(
                f"chart dimension must be odd (2n+1), got {len(self.coords)}"
            )

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def n(self) -> int:
        return (len(self.coords) - 1) // 2

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.coords + self.params

    def zero(self) -> ScalarExpr:
        return ScalarExpr.zero(self.symbols)

    def const(self, q) -> ScalarExpr:
        return ScalarExpr.const(q, self.symbols)

    def coordinate(self, name: str) -> ScalarExpr:
        return ScalarExpr.coordinate(name, self.symbols)

    def exponential(self, coeffs: dict) -> ScalarExpr:
        return ScalarExpr.exponential(coeffs, self.symbols)


@dataclass(frozen=True, slots=True)
class VectorField:
    """Coordinate-basis vector field: sum of components[i] * d/d(coords[i])."""

    chart: Chart
    components: tuple[ScalarExpr, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ValenceError("component count does not match chart dimension")

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        return VectorField(chart, (chart.zero(),) * chart.dim)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.chart,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.chart,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(-a for a in self.components))

    def scale(self, factor) -> "VectorField":
        return VectorField(self.chart, tuple(a * factor for a in self.components))

    def __call__(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative X(f)."""
        out = ScalarExpr.zero(self.chart.symbols)
        for name, comp in zip(self.chart.coords, self.components):
            if not comp.is_zero():
                out = out + comp * f.diff(name)
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket [X, Y] in coordinate components."""
    chart = x.chart
    if chart != y.chart:
        raise ValenceError("bracket arguments live on different charts")
    comps = []
    for i in range(chart.dim):
        acc = chart.zero()
        for j, name in enumerate(chart.coords):
            acc = acc + x.components[j] * y.components[i].diff(name)
            acc = acc - y.components[j] * x.components[i].diff(name)
        comps.append(acc)
    return VectorField(chart, tuple(comps))


# ---------------------------------------------------------------------------
# Exact linear algebra over the scalar ring.
# ---------------------------------------------------------------------------


def mat_det(m: Matrix, zero: ScalarExpr) -> ScalarExpr:
    """Determinant by cofactor expansion; fine at the dimensions used here."""
    size = len(m)
    if size == 1:
        return m[0][0]
    det = zero
    for j in range(size):
        if m[0][j].is_zero():
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        cofactor = mat_det(minor, zero)
        term = m[0][j] * cofactor
        det = det + term if j % 2 == 0 else det - term
    return det


def mat_inverse(m: Matrix, zero: ScalarExpr) -> Matrix:
    """Adjugate inverse; requires the determinant to be a ring unit."""
    size = len(m)
    det = mat_det(m, zero)
    try:
        det_inv = det.invert()
    except NonInvertible as exc:
        raise NonInvertible(f"matrix is not invertible over the ring: det = {det}") from exc
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            minor = tuple(
                tuple(m[r][c] for c in range(size) if c != i)
                for r in range(size)
                if r != j
            )
            cof = mat_det(minor, zero) if size > 1 else None
            entry = cof if size > 1 else ScalarExpr.const(1, zero.symbols)
            if (i + j) % 2 == 1:
                entry = -entry
            row.append(entry * det_inv)
        out.append(tuple(row))
    return tuple(out)


def mat_rank(m: Sequence[Sequence[ScalarExpr]], zero: ScalarExpr) -> int:
    """Rank by fraction-free elimination (valid: the ring is a domain)."""
    rows = [list(r) for r in m]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col].is_zero():
                continue
            factor = rows[r][col]
            rows[r] = [p * a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Frames.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """Ordered frame with its gram matrix g(E_i, E_j).

    The member component matrix must be invertible over the ring, which is
    the pointwise linear-independence check.  The gram matrix is kept as
    given; the pseudo-orthonormal helpers below insist on a constant
    diagonal of +1/-1 when a computation needs it.
    """

    chart: Chart
    members: tuple[VectorField, ...]
    gram: Matrix
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        d = self.chart.dim
        if len(self.members) != d:
            raise ValenceError(f"expected {d} frame members, got {len(self.members)}")
        if len(self.gram) != d or any(len(row) != d for row in self.gram):
            raise ValenceError("gram matrix shape does not match the frame")
        for i in range(d):
            for j in range(i, d):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValenceError("gram matrix must be symmetric")
        self.component_inverse()  # raises NonInvertible for dependent members

    @property
    def dim(self) -> int:
        return self.chart.dim

    def component_matrix(self) -> Matrix:
        """Columns are the coordinate components of the members."""
        d = self.dim
        return tuple(
            tuple(self.members[j].components[a] for j in range(d)) for a in range(d)
        )

    def component_inverse(self) -> Matrix:
        if "cinv" not in self._cache:
            self._cache["cinv"] = mat_inverse(self.component_matrix(), self.chart.zero())
        return self._cache["cinv"]

    def gram_inverse(self) -> Matrix:
        if "ginv" not in self._cache:
            self._cache["ginv"] = mat_inverse(self.gram, self.chart.zero())
        return self._cache["ginv"]

    def gram_signs(self) -> tuple[Fraction, ...]:
        """Diagonal signs; requires the constant diagonal +1/-1 gram."""
        d = self.dim
        signs = []
        for i in range(d):
            for j in range(d):
                if i != j and not self.gram[i][j].is_zero():
                    raise ValenceError("gram matrix is not diagonal")
            q = self.gram[i][i].as_rational()
            if q * q != 1:
                raise ValenceError(f"gram diagonal entry {q} is not +1 or -1")
            signs.append(q)
        return tuple(signs)

    def unit_components(self, i: int) -> tuple[ScalarExpr, ...]:
        zero, one = self.chart.zero(), self.chart.const(1)
        return tuple(one if j == i else zero for j in range(self.dim))

    def to_frame(self, x: VectorField) -> tuple[ScalarExpr, ...]:
        """Frame components of X, solving sum(c_i E_i) = X."""
        for i, member in enumerate(self.members):
            if x is member:
                return self.unit_components(i)
        inv = self.component_inverse()
        return contract("inv[ia] x[a] -> i", inv=inv, x=x.components)

    def from_frame(self, comps: Sequence[ScalarExpr]) -> VectorField:
        members = [e.components for e in self.members]
        return VectorField(self.chart, contract("c[i] e[ia] -> a", c=comps, e=members))

    def metric_vv(self, x: VectorField, y: VectorField) -> ScalarExpr:
        """g(X, Y) through frame components and the gram matrix."""
        return contract(
            "x[i] g[ij] y[j] ->", x=self.to_frame(x), g=self.gram, y=self.to_frame(y)
        )

    def metric_tensor(self) -> "Tensor":
        return Tensor(self, 0, 2, _flatten(self.gram), symmetric=True)

    def brackets(self) -> tuple[tuple[tuple[ScalarExpr, ...], ...], ...]:
        """Frame components of every [E_i, E_j], nested [i][j][k], cached."""
        if "brackets" not in self._cache:
            d, members = self.dim, self.members
            table = [[()] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    table[i][j] = self.to_frame(bracket(members[i], members[j]))
                    table[j][i] = tuple(-c for c in table[i][j])
            self._cache["brackets"] = tuple(map(tuple, table))
        return self._cache["brackets"]


def derivatives(
    fields: Sequence[VectorField], comps: Sequence[ScalarExpr]
) -> tuple[ScalarExpr, ...]:
    """X(c) for every field X and component c, the field index first."""
    return tuple(c if c.is_zero() else x(c) for x in fields for c in comps)


def _flatten(rows: Matrix) -> tuple[ScalarExpr, ...]:
    return tuple(entry for row in rows for entry in row)


# ---------------------------------------------------------------------------
# Tensors in frame components.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Tensor:
    """Frame-component tensor of valence (r, s) with r in {0, 1}.

    Components are stored flat in row-major order over (r + s) frame
    indices; for r = 1 the contravariant index comes first.
    """

    frame: Frame
    r: int
    s: int
    components: tuple[ScalarExpr, ...]
    symmetric: bool = False

    def __post_init__(self):
        if self.r not in (0, 1):
            raise ValenceError("only valences (0,s) and (1,s) are supported")
        d = self.frame.dim
        if len(self.components) != d ** (self.r + self.s):
            raise ValenceError("component count does not match valence")
        if self.symmetric:
            if (self.r, self.s) != (0, 2):
                raise ValenceError("symmetry enforcement is for (0,2) tensors")
            for i in range(d):
                for j in range(i + 1, d):
                    if self[i, j] != self[j, i]:
                        raise ValenceError(
                            f"tensor is not symmetric at ({i}, {j}):"
                            f" {self[i, j]} vs {self[j, i]}"
                        )

    @property
    def rank(self) -> int:
        return self.r + self.s

    def __getitem__(self, idx) -> ScalarExpr:
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self.rank:
            raise ValenceError(f"expected {self.rank} indices, got {len(idx)}")
        d = self.frame.dim
        flat = 0
        for i in idx:
            if not 0 <= i < d:
                raise ValenceError(f"frame index {i} outside range({d})")
            flat = flat * d + i
        return self.components[flat]

    @staticmethod
    def build(
        frame: Frame,
        r: int,
        s: int,
        entry: Callable[..., ScalarExpr] | Sequence[ScalarExpr],
        symmetric: bool = False,
    ) -> "Tensor":
        """Tensor from entry(*idx), or from its components in row-major order."""
        if callable(entry):
            idx = itertools.product(range(frame.dim), repeat=r + s)
            entry = [entry(*i) for i in idx]
        return Tensor(frame, r, s, tuple(entry), symmetric=symmetric)

    def __add__(self, other: "Tensor") -> "Tensor":
        self._match(other)
        return Tensor(
            self.frame,
            self.r,
            self.s,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._match(other)
        return Tensor(
            self.frame,
            self.r,
            self.s,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __neg__(self) -> "Tensor":
        return Tensor(self.frame, self.r, self.s, tuple(-a for a in self.components))

    def scale(self, factor) -> "Tensor":
        return Tensor(
            self.frame, self.r, self.s, tuple(a * factor for a in self.components)
        )

    def _match(self, other: "Tensor") -> None:
        if self.frame is not other.frame or (self.r, self.s) != (other.r, other.s):
            raise ValenceError("tensor operands do not share frame and valence")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def first_nonzero(self) -> tuple[tuple[int, ...], ScalarExpr] | None:
        idx = itertools.product(range(self.frame.dim), repeat=self.rank)
        return next(((i, c) for i, c in zip(idx, self.components) if c.terms), None)


# ---------------------------------------------------------------------------
# The contraction primitive (see the module docstring for the spec).
# ---------------------------------------------------------------------------

_FACTOR = re.compile(r"([A-Za-z_]\w*)(?:\[([a-z]+)\])?|(\d+)")
_ONE = (Term(Fraction(1)),)


@functools.lru_cache(maxsize=None)
def _parse_spec(spec: str):
    """(output letters, terms), a term being (sign, ((name, letters), ...))."""
    lhs, arrow, out = spec.partition("->")
    out = out.strip()
    tokens = lhs.split()
    if tokens and tokens[0] not in "+-":
        tokens.insert(0, "+")
    terms: list[tuple[int, list]] = []
    for token in tokens:
        if token in ("+", "-"):
            terms.append((-1 if token == "-" else 1, []))
            continue
        m = _FACTOR.fullmatch(token)
        if m is None:
            raise ValueError(f"bad factor {token!r} in contraction {spec!r}")
        terms[-1][1].append((m.group(1) or m.group(3), m.group(2) or ""))
    distinct = len(set(out)) == len(out)
    if not (arrow and terms and distinct and re.fullmatch(r"[a-z]*", out)):
        raise ValueError(f"malformed contraction {spec!r}")
    for _, factors in terms:
        letters = "".join(l for _, l in factors)
        if not factors or not set(out) <= set(letters):
            raise ValueError(f"a term of {spec!r} lacks an output index")
    return out, tuple((sign, tuple(factors)) for sign, factors in terms)


def _components(value, rank: int):
    """(flat components, dimension) of a Tensor, ScalarExpr or sequence operand."""
    if isinstance(value, Tensor):
        if value.rank != rank:
            raise ValenceError(f"tensor of rank {value.rank} given {rank} indices")
        return value.components, value.frame.dim
    if isinstance(value, ScalarExpr) != (rank == 0):
        raise ValenceError("a scalar takes no indices, a sequence at least one")
    if isinstance(value, ScalarExpr):
        return (value,), None
    comps, depth = list(value), 1
    while comps and not isinstance(comps[0], ScalarExpr):
        comps, depth = [c for row in comps for c in row], depth + 1
    if depth not in (1, rank):
        raise ValenceError(f"operand nested {depth} deep given {rank} indices")
    d = len(value) if depth == rank else round(len(comps) ** (1 / rank))
    if len(comps) != d**rank:
        raise ValenceError(f"{len(comps)} components do not fit {rank} indices")
    return comps, d


def contract(spec: str, **operands) -> ScalarExpr | tuple[ScalarExpr, ...]:
    """Evaluate a signed sum of index contractions; see the module docstring."""
    out, terms = _parse_spec(spec)
    flat: dict[str, Sequence[ScalarExpr]] = {}
    dims, symbols = set(), set()
    for _, factors in terms:
        for name, letters in factors:
            if name in flat or name.isdigit() or name == "delta":
                continue
            value = operands.get(name)
            if value is None:
                raise ValueError(f"contraction {spec!r} has no operand {name!r}")
            if isinstance(value, (int, Fraction)) and not letters:
                continue
            flat[name], d = _components(value, len(letters))
            dims.add(d)
            if flat[name]:
                symbols.add(flat[name][0].symbols)
    dims.discard(None)
    if len(dims) != 1 or len(symbols) != 1:
        raise ValenceError(f"operands of {spec!r} disagree on dimension or chart")
    (d,), (syms,) = dims, symbols

    sparse: dict = {}

    def entries(name: str, letters: str):
        """Nonzero (index, terms) pairs, diagonal taken for a repeated letter."""
        key = (name, letters)
        if key not in sparse:
            unique = "".join(dict.fromkeys(letters))
            if name == "delta":
                pairs = [((i,) * len(letters), _ONE) for i in range(d)]
            else:
                idx = itertools.product(range(d), repeat=len(letters))
                pairs = [(i, c.terms) for i, c in zip(idx, flat[name]) if c.terms]
            if len(unique) < len(letters):
                first = [letters.index(l) for l in letters]
                keep = [letters.index(l) for l in unique]
                pairs = [
                    (tuple(i[p] for p in keep), t)
                    for i, t in pairs
                    if all(i[p] == i[q] for p, q in enumerate(first))
                ]
            sparse[key] = (unique, pairs)
        return sparse[key]

    acc: dict[int, list[Term]] = {}
    for sign, factors in terms:
        coeff = Fraction(sign)
        parts = []
        for name, letters in factors:
            value = operands.get(name)
            if name.isdigit():
                coeff *= int(name)
            elif not letters and isinstance(value, (int, Fraction)):
                coeff *= value
            else:
                parts.append(entries(name, letters))
        if coeff == 0 or any(not pairs for _, pairs in parts):
            continue
        # Join the sparsest factor first; each later one is grouped by the
        # letters already bound, so only matching components are visited.
        parts.sort(key=lambda part: len(part[1]))
        slot: dict[str, int] = {}
        plan = []
        for letters, pairs in parts:
            bound = [p for p, l in enumerate(letters) if l in slot]
            free = [p for p, l in enumerate(letters) if l not in slot]
            groups: dict[tuple, list] = {}
            for i, t in pairs:
                groups.setdefault(tuple(i[p] for p in bound), []).append(
                    (tuple(i[p] for p in free), t)
                )
            for p in free:
                slot[letters[p]] = len(slot)
            bound_slots = [slot[letters[p]] for p in bound]
            plan.append((bound_slots, [slot[letters[p]] for p in free], groups))
        out_slots = [slot[l] for l in out]
        vals = [0] * len(slot)

        def walk(k: int, product):
            if k == len(plan):
                at = 0
                for s in out_slots:
                    at = at * d + vals[s]
                bucket = acc.setdefault(at, [])
                if coeff == 1:
                    bucket.extend(product)
                else:
                    bucket.extend(
                        Term(coeff * t.coeff, t.monomial, t.exponent) for t in product
                    )
                return
            bound, free, groups = plan[k]
            for free_vals, t in groups.get(tuple(vals[s] for s in bound), ()):
                for s, v in zip(free, free_vals):
                    vals[s] = v
                walk(k + 1, mul_terms(product, t))

        walk(0, _ONE)

    zero = ScalarExpr.zero(syms)
    comps = tuple(
        ScalarExpr.normalize(syms, acc[at]) if at in acc else zero
        for at in range(d ** len(out))
    )
    return comps if out else comps[0]


def tensor_apply(t: Tensor, args: Sequence[VectorField]):
    """Contract a tensor with vector-field arguments.

    Returns a ScalarExpr for valence (0, s) and a VectorField for (1, s).
    """
    if len(args) != t.s:
        raise ValenceError(f"tensor of valence ({t.r},{t.s}) takes {t.s} arguments")
    frame = t.frame
    upper = "a" * t.r
    letters = "bcdefghijklmnopqrstuvwxyz"[: t.s]
    factors = "".join(f" x{l}[{l}]" for l in letters)
    value = contract(
        f"t[{upper}{letters}]{factors} -> {upper}" if t.rank else "t ->",
        t=t,
        **{f"x{l}": frame.to_frame(x) for l, x in zip(letters, args)},
    )
    return frame.from_frame(value) if t.r else value


@dataclass(frozen=True, slots=True)
class OneForm:
    """One-form stored by its values on the frame members."""

    frame: Frame
    components: tuple[ScalarExpr, ...]

    def __post_init__(self):
        if len(self.components) != self.frame.dim:
            raise ValenceError("one-form component count does not match frame")

    def __call__(self, x: VectorField) -> ScalarExpr:
        return contract("w[i] x[i] ->", w=self.components, x=self.frame.to_frame(x))

    def on_member(self, i: int) -> ScalarExpr:
        return self.components[i]

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(
            self.frame, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(
            self.frame, tuple(a - b for a, b in zip(self.components, other.components))
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


def differential(f: ScalarExpr, frame: Frame) -> OneForm:
    """df as a one-form on the frame: df(E_i) = E_i(f)."""
    return OneForm(frame, tuple(e(f) for e in frame.members))


def exterior_derivative(omega: OneForm) -> Tensor:
    """d(omega) on frame pairs: X(w(Y)) - Y(w(X)) - w([X, Y])."""
    frame = omega.frame
    comps = contract(
        "dw[ij] - dw[ji] - w[k] c[ijk] -> ij",
        dw=derivatives(frame.members, omega.components),
        w=omega.components,
        c=frame.brackets(),
    )
    return Tensor.build(frame, 0, 2, comps)
