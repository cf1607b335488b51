"""Frames and tensors over an odd-dimensional chart.

Every vector and tensor is held in the components of a fixed frame, which
is pseudo-orthonormal by construction: a `Frame` holds one sign, +1 or
-1, per member, and the metric in its components is diag(signs), its own
inverse.  The frame's member matrix m[ka], the coordinate component a of
E_k, is the only coordinate-basis table; its inverse gives the frame
components of each d/dx^a.  A vector, xi included, is a rank-1
`Components` of frame components.

Every sum over frame indices goes through one primitive, `contract`.  Its
spec is a signed sum of products of named factors, then the output
indices:

    contract("S[xm] R[myzw] xi[a] - S[xy] xi[m] R[amzw] -> axyzw",
             S=ricci, R=riem, xi=s.xi)

- A factor is `name[letters]`, one lowercase letter per frame index, with
  the operand passed as the keyword `name`: a `Tensor` or a `Components`
  of that rank, or for a factor without brackets a `ScalarExpr` or a
  rational.  `delta[ij]` is the identity, and a bare integer such as `2`
  is a constant coefficient.  A plain or nested sequence is rejected with
  `ValenceError`: each table is built as `Components` once, where it is
  made (the frame's member matrix, metric tensor, brackets and inverse,
  the connection coefficients, derivative tables).
- A letter that is not an output index is summed over `range(d)`; a
  letter repeated inside one factor takes its diagonal.  Every term must
  carry every output index.
- Only nonzero operand components are visited: a `Components` stores
  only those, in row-major order, and is the one place that knows that
  layout; a `Tensor` is read through its `Components`.  Within one call
  each operand is grouped once per pattern of already bound letters, and
  the join starts from the sparsest factor.  All product terms of an
  output component are collected first and normalized once.
- The result is a `Components` built from the nonzero pairs found, or
  one `ScalarExpr` when there are no output letters.

Directional derivatives are contractions too: `derivatives` takes the
coordinate partials p[a...] of the nonzero components once and returns
E_k(c) = m[ka] p[a...] along every frame member.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from typing import Callable, Sequence

from parakenmotsu.scalar import MAX_COEFFICIENT_TERMS, NonInvertible, ScalarExpr, Term
from parakenmotsu.scalar import mul_terms, read_only


class ValenceError(ValueError):
    """Raised when tensor arguments do not match the declared valence."""


Matrix = tuple[tuple[ScalarExpr, ...], ...]


Nonzero = tuple[tuple[tuple[int, ...], ScalarExpr], ...]


class Components:
    """Frame components over `rank` indices, each in range(dim): the
    operand shape of `contract`.

    Only the nonzero (index, component) pairs are stored, in row-major
    order; every other entry is `zero`, which carries the chart symbols.
    `Components(values, rank, dim)` scans a dense row-major sequence once;
    `Components.from_nonzero` takes the pairs when they are known, as in
    `contract`.  `len()` and iteration are those of the dense sequence.  A
    rank-0 value is one component.
    """

    __slots__ = ("dim", "rank", "zero", "_pairs", "_at")
    __setattr__ = __delattr__ = read_only

    def __init__(self, values: Sequence[ScalarExpr], rank: int, dim: int):
        if len(values) != dim**rank:
            raise ValenceError(f"{len(values)} components do not fit {rank} indices")
        idx = itertools.product(range(dim), repeat=rank)
        pairs = [(i, c) for i, c in zip(idx, values) if c.terms]
        self._fill(dim, rank, ScalarExpr.zero(values[0].symbols), pairs)

    @classmethod
    def from_nonzero(cls, pairs, rank: int, dim: int, zero: ScalarExpr) -> "Components":
        """From the nonzero (index, component) pairs, in row-major order."""
        self = object.__new__(cls)
        self._fill(dim, rank, zero, pairs)
        return self

    def _fill(self, dim, rank, zero, pairs) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "_pairs", tuple(pairs))
        object.__setattr__(self, "_at", dict(self._pairs))

    def nonzero(self) -> Nonzero:
        """(index, component) of each nonzero component, in row-major order."""
        return self._pairs

    def __getitem__(self, idx) -> ScalarExpr:
        if isinstance(idx, int):
            idx = (idx,)
        value = self._at.get(idx)
        if value is not None:
            return value
        if len(idx) != self.rank:
            raise ValenceError(f"expected {self.rank} indices, got {len(idx)}")
        for i in idx:
            if not 0 <= i < self.dim:
                raise ValenceError(f"frame index {i} outside range({self.dim})")
        return self.zero

    @classmethod
    def summed(cls, pairs, rank: int, dim: int, zero: ScalarExpr) -> "Components":
        """From (index, component) pairs in any order, an index given more
        than once holding the sum of its components."""
        total: dict[tuple[int, ...], ScalarExpr] = {}
        for i, c in pairs:
            total[i] = total[i] + c if i in total else c
        nonzero = [(i, total[i]) for i in sorted(total) if total[i].terms]
        return cls.from_nonzero(nonzero, rank, dim, zero)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = (self.dim, self.rank, self.zero, self._pairs)
        return key == (other.dim, other.rank, other.zero, other._pairs)

    def __hash__(self):
        return hash((self.dim, self.rank, self._pairs))

    def map(self, f: Callable[[ScalarExpr], ScalarExpr]) -> "Components":
        """f of every nonzero entry, dropping the entries where it is zero."""
        pairs = [(i, v) for i, c in self._pairs if (v := f(c)).terms]
        return Components.from_nonzero(pairs, self.rank, self.dim, self.zero)

    def __len__(self) -> int:
        return self.dim**self.rank

    def __iter__(self):
        at, zero = self._at, self.zero
        for i in itertools.product(range(self.dim), repeat=self.rank):
            yield at.get(i, zero)


class Chart:
    """Named coordinates plus optional constant parameters.

    The geometric dimension must be odd, 2n + 1.  Parameters behave as
    extra scalar symbols that no directional derivative differentiates;
    they exist so that unknown constants can ride through the tensor
    algebra symbolically.
    """

    __slots__ = ("coords", "params")
    __setattr__ = __delattr__ = read_only

    def __init__(self, coords: tuple[str, ...], params: tuple[str, ...] = ()):
        names = coords + params
        if len(set(names)) != len(names):
            raise ValueError("chart symbols must be distinct")
        if len(coords) % 2 == 0 or not coords:
            raise ValueError(f"chart dimension must be odd (2n+1), got {len(coords)}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "params", params)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coords, self.params) == (other.coords, other.params)

    def __hash__(self):
        return hash((self.coords, self.params))

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


# ---------------------------------------------------------------------------
# Exact linear algebra over the scalar ring: one fraction-free elimination
# (E. H. Bareiss, Math. Comp. 22, 1968) gives the rank, the determinant and,
# block by block (several times faster on a rotated frame), the inverse.
# ---------------------------------------------------------------------------


def _blocks(m: Matrix) -> list[tuple[list[int], list[int]]]:
    """(rows, columns) of each component of the graph joining row i to column j
    when m[i][j] is nonzero; quick-find labels, column j being node d + j."""
    d, label = len(m), list(range(2 * len(m)))
    for i, j in itertools.product(range(d), repeat=2):
        if m[i][j].terms and label[i] != label[d + j]:
            old, new = label[d + j], label[i]
            label = [new if x == old else x for x in label]
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for node, root in enumerate(label):
        blocks.setdefault(root, ([], []))[node >= d].append(node % d)
    return list(blocks.values())


def _eliminate(rows: list[list[ScalarExpr]], zero: ScalarExpr, bound=MAX_COEFFICIENT_TERMS,
               jordan: bool = False):
    """Eliminate `rows` in place; (rank, sign of the row swaps, last pivot).

    A pivot p in row top turns each other row r into (p r - f top) / q, f
    being r's entry in p's column and q the pivot before (first 1); p's
    column and each entry q over a zero of top take 0 and p directly.  Each
    entry is a minor, so the division is exact; it is held to `bound`
    terms (None: unbounded).  Only rows below p change, unless `jordan`:
    then the rows are [B | I] for a square B, the pivots come from B and
    the rows above are cleared too, so an invertible B leaves [c I | c B^-1].
    """
    width = len(rows[0]) if rows else 0
    rank, sign, previous = 0, 1, ScalarExpr.const(1, zero.symbols)
    for col in range(width // 2 if jordan else width):
        pick = next((r for r in range(rank, len(rows)) if rows[r][col].terms), None)
        if pick is None:
            continue
        if pick != rank:
            rows[rank], rows[pick], sign = rows[pick], rows[rank], -sign
        top = rows[rank]
        p = top[col]
        for r in range(0 if jordan else rank + 1, len(rows)):
            if r != rank:
                f = rows[r][col]
                rows[r] = [
                    zero if j == col
                    else p if a == previous and not b.terms
                    else (p * a - f * b).divide(previous, bound)
                    for j, (a, b) in enumerate(zip(rows[r], top))
                ]
        previous, rank = p, rank + 1
    return rank, sign, previous


def mat_det(m: Matrix, zero: ScalarExpr) -> ScalarExpr:
    """The sign of the row swaps times the last pivot; 0 when the rank is short."""
    rank, sign, pivot = _eliminate([list(r) for r in m], zero)
    return pivot * sign if rank == len(m) else zero


def mat_rank(m: Sequence[Sequence[ScalarExpr]], zero: ScalarExpr) -> int:
    """Rank, its entries not held to a bound: check A10, the caller, cannot report one."""
    return _eliminate([list(r) for r in m], zero, None)[0]


def mat_inverse(m: Matrix, zero: ScalarExpr) -> Matrix:
    """Inverse; det m must be a unit q*exp(l), and then so is each block's
    last pivot c, which scales the block's Gauss-Jordan result c B^-1."""
    one, out = ScalarExpr.const(1, zero.symbols), [[zero] * len(m) for _ in m]
    for rows, cols in _blocks(m):
        k = len(rows)
        aug = [[m[i][j] for j in cols] + [one if s == t else zero for s in range(k)]
               for t, i in enumerate(rows)]
        rank, _, pivot = _eliminate(aug, zero, jordan=True) if len(cols) == k else (0, 1, zero)
        try:
            u = (pivot if rank == k else zero).invert()
        except NonInvertible as exc:
            det = mat_det(m, zero)
            raise NonInvertible(f"matrix is not invertible over the ring: det = {det}") from exc
        for t, row in enumerate(aug):
            for s, value in enumerate(row[k:]):
                out[cols[t]][rows[s]] = value * u
    return tuple(map(tuple, out))


# ---------------------------------------------------------------------------
# Frames.
# ---------------------------------------------------------------------------


class Frame:
    """Ordered pseudo-orthonormal frame: g(E_i, E_j) is signs[i] when i = j
    and 0 otherwise, each sign +1 or -1.

    `members` is the member matrix m[ka], the coordinate component a of
    E_k, as a rank-2 `Components`.  Its determinant must be a unit q*exp(l),
    so the members are independent at every point.  The metric
    diag(signs) is its own inverse.  Equality and the hash ignore
    `_cache`, which holds values derived from the other fields: the tables
    `contract` reads, each built as `Components` on first use.
    """

    __setattr__ = __delattr__ = read_only

    def __init__(self, chart: Chart, members: Components, signs: tuple[int, ...]):
        d = chart.dim
        if (members.rank, members.dim) != (2, d):
            raise ValenceError(f"expected a {d} x {d} member matrix")
        if len(signs) != d or any(q not in (1, -1) for q in signs):
            raise ValenceError(f"frame signs {tuple(signs)} are not {d} entries of +1 or -1")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "signs", tuple(int(q) for q in signs))
        object.__setattr__(self, "_cache", {})
        self.component_inverse()  # NonInvertible unless det is a unit; or TooManyTerms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chart, self.members, self.signs) == (
            other.chart,
            other.members,
            other.signs,
        )

    def __hash__(self):
        return hash((self.chart, self.members, self.signs))

    @property
    def dim(self) -> int:
        return self.chart.dim

    def component_inverse(self) -> Components:
        """inv[ka]: the frame component k of d/d(coords[a])."""
        if "cinv" not in self._cache:
            m, d = self.members, self.dim
            columns = tuple(tuple(m[k, a] for k in range(d)) for a in range(d))
            inv = mat_inverse(columns, self.chart.zero())
            self._cache["cinv"] = Components([e for row in inv for e in row], 2, d)
        return self._cache["cinv"]

    def metric_tensor(self) -> "Tensor":
        """The metric diag(signs) as a (0,2) tensor, cached."""
        if "g" not in self._cache:
            signs, const = self.signs, self.chart.const
            self._cache["g"] = Tensor.build(
                self, 0, 2, lambda i, j: const(signs[i] if i == j else 0)
            )
        return self._cache["g"]

    def structure_constants(self) -> Components:
        """Frame components c[ijk] of every [E_i, E_j] = c[ijk] E_k, cached.

        The coordinate components of [E_i, E_j] are E_i(m[ja]) - E_j(m[ia]);
        they are antisymmetrized first, so that their terms cancel before
        the product with the inverse.
        """
        if "brackets" not in self._cache:
            dm = derivatives(self, self.members)  # [i, j, a] = E_i(m[ja])
            b = contract("dm[ija] - dm[jia] -> ija", dm=dm)
            inv = self.component_inverse()
            self._cache["brackets"] = contract("inv[ka] b[ija] -> ijk", inv=inv, b=b)
        return self._cache["brackets"]


def derivatives(frame: Frame, comps: Components) -> Components:
    """E_k(c) for every frame member k and component c, the member index
    first: m[ka] p[a...] over the coordinate partials p of the nonzero
    components."""
    partials = [
        ((a,) + i, v)
        for a, name in enumerate(frame.chart.coords)
        for i, c in comps.nonzero()
        if (v := c.diff(name)).terms
    ]
    p = Components.from_nonzero(partials, comps.rank + 1, comps.dim, comps.zero)
    rest = "bcdefghij"[: comps.rank]
    return contract(f"m[ka] p[a{rest}] -> k{rest}", m=frame.members, p=p)


# ---------------------------------------------------------------------------
# Tensors in frame components.
# ---------------------------------------------------------------------------


class Tensor:
    """Frame-component tensor of valence (r, s) with r in {0, 1}.

    A frame, the valence and one `Components` over the r + s frame
    indices, in row-major order; for r = 1 the contravariant index comes
    first.  A one-form such as eta is a (0,1) tensor, read as eta[i].
    """

    __slots__ = ("frame", "r", "s", "components")
    __setattr__ = __delattr__ = read_only

    def __init__(self, frame: Frame, r: int, s: int, components: Sequence[ScalarExpr]):
        if r not in (0, 1):
            raise ValenceError("only valences (0,s) and (1,s) are supported")
        if not isinstance(components, Components):
            components = Components(components, r + s, frame.dim)
        if (components.rank, components.dim) != (r + s, frame.dim):
            raise ValenceError("component count does not match valence")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "components", components)

    @property
    def rank(self) -> int:
        return self.r + self.s

    def __getitem__(self, idx) -> ScalarExpr:
        return self.components[idx]

    @staticmethod
    def build(
        frame: Frame,
        r: int,
        s: int,
        entry: Callable[..., ScalarExpr] | Sequence[ScalarExpr],
    ) -> "Tensor":
        """Tensor from entry(*idx), or from its components in row-major order."""
        if callable(entry):
            idx = itertools.product(range(frame.dim), repeat=r + s)
            entry = [entry(*i) for i in idx]
        return Tensor(frame, r, s, entry)

    def __add__(self, other: "Tensor") -> "Tensor":
        return self._merge(other, other.nonzero())

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self._merge(other, (-other).nonzero())

    def __neg__(self) -> "Tensor":
        return Tensor(self.frame, self.r, self.s, self.components.map(ScalarExpr.__neg__))

    def scale(self, factor) -> "Tensor":
        comps = self.components.map(lambda c: c * factor)
        return Tensor(self.frame, self.r, self.s, comps)

    def _merge(self, other: "Tensor", pairs: Nonzero) -> "Tensor":
        """This tensor plus the nonzero `pairs` of `other`, entry by entry."""
        self._match(other)
        zero = self.components.zero
        comps = Components.summed(self.nonzero() + pairs, self.rank, self.frame.dim, zero)
        return Tensor(self.frame, self.r, self.s, comps)

    def _match(self, other: "Tensor") -> None:
        if self.frame is not other.frame or (self.r, self.s) != (other.r, other.s):
            raise ValenceError("tensor operands do not share frame and valence")

    def nonzero(self) -> Nonzero:
        """(index, component) of each nonzero component, in row-major order."""
        return self.components.nonzero()

    def is_zero(self) -> bool:
        return not self.nonzero()

    def first_nonzero(self) -> tuple[tuple[int, ...], ScalarExpr] | None:
        nonzero = self.nonzero()
        return nonzero[0] if nonzero else None


# ---------------------------------------------------------------------------
# The contraction primitive (see the module docstring for the spec).
# ---------------------------------------------------------------------------

_FACTOR = re.compile(r"([A-Za-z_]\w*)(?:\[([a-z]+)\])?|(\d+)")
_ONE = (Term(1),)


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


def _components(value, rank: int) -> tuple[Components, int | None]:
    """The Components of a Tensor, Components or ScalarExpr operand given
    `rank` indices, and their dimension (None for a scalar)."""
    if isinstance(value, Tensor):
        value, d = value.components, value.frame.dim
    elif isinstance(value, ScalarExpr):
        value, d = Components((value,), 0, 1), None
    elif isinstance(value, Components):
        d = value.dim
    else:
        raise ValenceError(f"operand {type(value).__name__} is not a Tensor or Components")
    if value.rank != rank:
        raise ValenceError(f"operand of rank {value.rank} given {rank} indices")
    return value, d


def contract(spec: str, **operands) -> ScalarExpr | Components:
    """Evaluate a signed sum of index contractions; see the module docstring."""
    out, terms = _parse_spec(spec)
    flat: dict[str, Components] = {}
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
            symbols.add(flat[name].zero.symbols)
    dims.discard(None)
    if len(dims) != 1 or len(symbols) != 1:
        raise ValenceError(f"operands of {spec!r} disagree on dimension or chart")
    (d,), (syms,) = dims, symbols

    entries: dict[tuple, list] = {}
    groups: dict[tuple, dict] = {}

    def sparse(name: str, pattern: tuple[int, ...]):
        """Nonzero (index, terms) pairs over the distinct letters of `pattern`
        (each letter's first position), diagonal taken for a repeated letter."""
        key = (name, pattern)
        if key not in entries:
            rank = len(pattern)
            if name == "delta":
                pairs = [((i,) * rank, _ONE) for i in range(d)]
            else:
                pairs = [(i, c.terms) for i, c in flat[name].nonzero()]
            keep = sorted(set(pattern))
            if len(keep) < rank:
                pairs = [
                    (tuple(i[p] for p in keep), t)
                    for i, t in pairs
                    if all(i[p] == i[q] for p, q in enumerate(pattern))
                ]
            entries[key] = pairs
        return entries[key]

    def grouped(name: str, pattern: tuple[int, ...], bound: tuple[int, ...]):
        """The pairs of `sparse`, grouped by their values at the `bound` positions."""
        key = (name, pattern, bound)
        if key not in groups:
            table: dict[tuple, list] = {}
            if bound:
                free = [p for p in range(len(set(pattern))) if p not in bound]
                for i, t in sparse(name, pattern):
                    table.setdefault(tuple([i[p] for p in bound]), []).append(
                        (tuple([i[p] for p in free]), t)
                    )
            else:  # one group, in which every index is free
                table[()] = sparse(name, pattern)
            groups[key] = table
        return groups[key]

    acc: dict[tuple[int, ...], list[Term]] = {}
    for sign, factors in terms:
        coeff = sign
        parts = []
        for name, letters in factors:
            value = operands.get(name)
            if name.isdigit():
                coeff *= int(name)
            elif not letters and isinstance(value, (int, Fraction)):
                coeff *= value
            else:
                pattern = tuple(letters.index(l) for l in letters)
                unique = "".join(dict.fromkeys(letters))
                parts.append((name, pattern, unique, len(sparse(name, pattern))))
        if coeff == 0 or any(not size for *_, size in parts):
            continue
        # Join the sparsest factor first; each later one is grouped by the
        # letters already bound, so only matching components are visited.
        parts.sort(key=lambda part: part[3])
        # A row is the values of the letters bound so far, in binding order,
        # with the product of its components.
        slot: dict[str, int] = {}
        rows = [((), _ONE)]
        for name, pattern, letters, _ in parts:
            bound = tuple(p for p, l in enumerate(letters) if l in slot)
            table = grouped(name, pattern, bound)
            at = [slot[letters[p]] for p in bound]
            rows = [
                (vals + free, mul_terms(product, t))
                for vals, product in rows
                for free, t in table.get(tuple([vals[s] for s in at]), ())
            ]
            for l in letters:
                slot.setdefault(l, len(slot))
        out_slots = [slot[l] for l in out]
        scale = (Term(coeff),)
        for vals, product in rows:
            acc.setdefault(tuple([vals[s] for s in out_slots]), []).extend(
                product if coeff == 1 else mul_terms(scale, product)
            )

    zero = ScalarExpr.zero(syms)
    if not out:
        return ScalarExpr.normalize(syms, acc[()]) if acc else zero
    found = []
    for idx in sorted(acc):
        value = ScalarExpr.normalize(syms, acc[idx])
        if value.terms:
            found.append((idx, value))
    return Components.from_nonzero(found, len(out), d, zero)


# ---------------------------------------------------------------------------
# Derivations of the tensor algebra.  A derivation D that commutes with
# contractions (a covariant derivative or a Lie derivative) is fixed by D on
# functions and on the frame members, D E_j = c[jm] E_m; on the dual coframe
# it is then D E^j = -c[mj] E^m, and on a tensor the Leibniz rule gives
#
#     (D t)[ab] = D(t[ab]) + c[za] t[zb] - c[bz] t[az]     for (1, 1),
#
# one signed term per index.  `leibniz_spec` writes that spec for any valence.
# ---------------------------------------------------------------------------

_LEIBNIZ_INDEX = "abcdefghjklmnopqrstuvwxy"  # i is the direction, z is summed


@functools.lru_cache(maxsize=None)
def leibniz_spec(r: int, s: int, directed: bool = False) -> str:
    """Contraction spec of D t for a valence (r, s) tensor t.

    Operands: `t`, `dt` the derivatives D of its components and `c` the
    table of D on the frame.  When `directed`, `dt`, `c` and the output carry
    a leading direction index i: one derivation per frame member.
    """
    i = "i" if directed else ""
    letters = _LEIBNIZ_INDEX[: r + s]
    terms = [f"dt[{i}{letters}]"]
    for p, l in enumerate(letters):
        moved = f"t[{letters[:p]}z{letters[p + 1:]}]"
        terms.append(f"+ c[{i}z{l}] {moved}" if p < r else f"- c[{i}{l}z] {moved}")
    return " ".join(terms) + f" -> {i}{letters}"


def tensor_apply(t: Tensor, args: Sequence[Components]):
    """Contract a tensor with vector arguments in frame components.

    Returns a ScalarExpr for valence (0, s) and the frame Components of a
    vector for (1, s).
    """
    if len(args) != t.s:
        raise ValenceError(f"tensor of valence ({t.r},{t.s}) takes {t.s} arguments")
    upper = "a" * t.r
    letters = "bcdefghijklmnopqrstuvwxyz"[: t.s]
    factors = "".join(f" x{l}[{l}]" for l in letters)
    return contract(
        f"t[{upper}{letters}]{factors} -> {upper}" if t.rank else "t ->",
        t=t,
        **{f"x{l}": x for l, x in zip(letters, args)},
    )


def exterior_derivative(omega: Tensor) -> Tensor:
    """d(omega) of a (0,1) tensor on frame pairs: X(w(Y)) - Y(w(X)) - w([X, Y])."""
    frame = omega.frame
    comps = contract(
        "dw[ij] - dw[ji] - w[k] c[ijk] -> ij",
        dw=derivatives(frame, omega.components),
        w=omega,
        c=frame.structure_constants(),
    )
    return Tensor.build(frame, 0, 2, comps)
