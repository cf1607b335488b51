"""Exact scalar arithmetic for chart functions.

Everything the engine differentiates or tests for zero lives in one small
ring: finite sums of terms

    q * x1^k1 * ... * xm^km * exp(l)

where q is an exact rational, the k's are non-negative integer exponents
over the chart symbols and l is a linear form in the symbols with rational
coefficients.  The ring is closed under addition, multiplication and
partial differentiation, and every expression has a unique canonical form
(terms sorted by exponent, then monomial), so equality and zero-testing
are decidable by construction.  That form is made in one place,
`ScalarExpr.collected`, from a table of like terms: `normalize` fills
one from a list of terms, and `multiply_into` fills one per output of a
contraction as it multiplies.  Division is exact: `divide` returns the
quotient when the ring holds one, within an optional term budget, and
raises otherwise; so only the units q*exp(l) invert.

Coefficients, q and those of l, are integer-first: an `int` when integral
and a `Rational` only when the denominator is not 1 (:func:`demote`).
Nearly all of them are integers, and `int` arithmetic is far cheaper.
`Rational(k) == k`, the two hash alike and print alike, so equality,
hashing and rendering do not depend on the representation.  A value that
leaves the ring (`as_rational`) is always a `Rational`, since `int / int`
would give a float.  An exact rational a caller passes in, such as the
standard library's `Fraction`, is converted once where it enters
(:func:`exact`).

``str()`` renders the canonical form as text, such as
``2*x^2*exp(-2*z)``, that a document coefficient (`dsl`) reads back as
the same expression.
"""

from __future__ import annotations

import sys
from math import gcd
from typing import Iterable, Mapping, Sequence


class ChartMismatch(ValueError):
    """Raised when operands belong to different charts."""


class NonInvertible(ValueError):
    """Raised when an expression has no inverse inside the ring."""


class TooManyTerms(ValueError):
    """Raised when a result would have more terms than its budget."""


class UnknownSymbol(ValueError):
    """Raised for a symbol name that is not part of the chart."""


def read_only(self, name, *value):
    """`__setattr__` and `__delattr__` of the immutable value types.

    Their `__init__` sets each field once, bypassing this method.
    """
    raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")


_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


class Rational:
    """An exact rational `numerator / denominator`: two ints in lowest
    terms, the denominator positive.

    It does what the package asks of a rational: `+`, `-`, `*`, `/`, unary
    `-`, `abs`, `int`, truth and the comparisons.  An operand is an `int`,
    a `Rational` or another exact rational with int `numerator` and
    `denominator`, such as the standard library's `Fraction`, and the
    result is a `Rational`; any other operand, a float included, is
    NotImplemented.  The arithmetic is Knuth's (TAOCP vol. 2, 4.5.1):
    gcds of the operands' parts keep the products small and leave nothing
    to reduce at the end.  `str` and the hash are those of `Fraction`, so
    the two print alike and order a set or a dict alike.
    """

    __slots__ = ("numerator", "denominator")
    __setattr__ = __delattr__ = read_only

    def __new__(cls, numerator: int, denominator: int = 1) -> "Rational":
        if denominator == 0:
            raise ZeroDivisionError(f"Rational({numerator}, 0)")
        g = gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        return _rational(numerator // g, denominator // g)

    def __repr__(self) -> str:
        return f"Rational({self.numerator}, {self.denominator})"

    def __str__(self) -> str:
        n, d = self.numerator, self.denominator
        return str(n) if d == 1 else f"{n}/{d}"

    def __hash__(self):
        # Python's numeric hash: |n| / d modulo the hash modulus, then the sign
        try:
            h = hash(hash(abs(self.numerator)) * pow(self.denominator, -1, _HASH_MODULUS))
        except ValueError:  # the modulus divides the denominator
            h = _HASH_INF
        h = h if self.numerator >= 0 else -h
        return -2 if h == -1 else h

    def __eq__(self, other):
        if other.__class__ is int:
            return self.denominator == 1 and self.numerator == other
        if other.__class__ is Rational:
            return self.numerator == other.numerator and self.denominator == other.denominator
        q = _parts(other)
        return NotImplemented if q is None else (self.numerator, self.denominator) == q

    def __lt__(self, other):
        q = _parts(other)
        return NotImplemented if q is None else self.numerator * q[1] < q[0] * self.denominator

    def __le__(self, other):
        q = _parts(other)
        return NotImplemented if q is None else self.numerator * q[1] <= q[0] * self.denominator

    def __gt__(self, other):
        q = _parts(other)
        return NotImplemented if q is None else self.numerator * q[1] > q[0] * self.denominator

    def __ge__(self, other):
        q = _parts(other)
        return NotImplemented if q is None else self.numerator * q[1] >= q[0] * self.denominator

    def __bool__(self) -> bool:
        return self.numerator != 0

    def __int__(self) -> int:
        """Truncated toward zero, as `int` truncates a float."""
        n, d = self.numerator, self.denominator
        return -(-n // d) if n < 0 else n // d

    def __neg__(self) -> "Rational":
        return _rational(-self.numerator, self.denominator)

    def __abs__(self) -> "Rational":
        return _rational(abs(self.numerator), self.denominator)

    def __add__(self, other):
        n, d = self.numerator, self.denominator
        if other.__class__ is int:
            return _rational(n + other * d, d)  # gcd(n + k*d, d) = gcd(n, d) = 1
        if other.__class__ is Rational:
            return _sum(n, d, other.numerator, other.denominator)
        q = _parts(other)
        return NotImplemented if q is None else _sum(n, d, *q)

    __radd__ = __add__

    def __sub__(self, other):
        q = _parts(other)
        return NotImplemented if q is None else _sum(self.numerator, self.denominator, -q[0], q[1])

    def __rsub__(self, other):
        q = _parts(other)
        return NotImplemented if q is None else _sum(*q, -self.numerator, self.denominator)

    def __mul__(self, other):
        n, d = self.numerator, self.denominator
        if other.__class__ is int:
            g = gcd(other, d)
            return _rational(n * (other // g), d // g)
        if other.__class__ is Rational:
            return _product(n, d, other.numerator, other.denominator)
        q = _parts(other)
        return NotImplemented if q is None else _product(n, d, *q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = _parts(other)
        return NotImplemented if q is None else _quotient(self.numerator, self.denominator, *q)

    def __rtruediv__(self, other):
        q = _parts(other)
        return NotImplemented if q is None else _quotient(*q, self.numerator, self.denominator)


_new_object = object.__new__
_set_numerator = Rational.numerator.__set__
_set_denominator = Rational.denominator.__set__


def _rational(numerator: int, denominator: int) -> Rational:
    """The Rational of a numerator and a positive denominator already in
    lowest terms, without the gcd of `Rational(...)`."""
    q = _new_object(Rational)
    _set_numerator(q, numerator)
    _set_denominator(q, denominator)
    return q


def _parts(value) -> tuple[int, int] | None:
    """(numerator, denominator) in lowest terms of an exact rational: an
    int, a Rational or another type with int `numerator` and `denominator`,
    such as `Fraction`, or a bool; None for anything else."""
    if value.__class__ is not Rational and value.__class__ is not int:
        try:
            n, d = value.numerator, value.denominator
        except AttributeError:
            return None
        if not (isinstance(n, int) and isinstance(d, int)):
            return None
        value = Rational(n, d)
    return value.numerator, value.denominator


def _sum(n1: int, d1: int, n2: int, d2: int) -> Rational:
    """n1/d1 + n2/d2 for two rationals in lowest terms, d1 > 0 and d2 > 0."""
    g = gcd(d1, d2)
    if g == 1:
        return _rational(n1 * d2 + n2 * d1, d1 * d2)
    s = d1 // g
    t = n1 * (d2 // g) + n2 * s
    g = gcd(t, g)  # the only factor t and s * d2 can share
    return _rational(t // g, s * (d2 // g))


def _product(n1: int, d1: int, n2: int, d2: int) -> Rational:
    """n1/d1 * n2/d2 for two rationals in lowest terms, d1 > 0 and d2 > 0."""
    g1, g2 = gcd(n1, d2), gcd(n2, d1)
    return _rational((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))


def _quotient(n1: int, d1: int, n2: int, d2: int) -> Rational:
    """(n1/d1) / (n2/d2) for two rationals in lowest terms, d1 > 0 and d2 > 0."""
    if n2 == 0:
        raise ZeroDivisionError("division by zero")
    return _product(n1, d1, d2, n2) if n2 > 0 else _product(n1, d1, -d2, -n2)


def demote(q) -> int | Rational:
    """The coefficient q integer-first: an `int` when it is integral, else a
    `Rational`.  An exact rational of another type is converted (`exact`)."""
    if q.__class__ is int:
        return q
    if q.__class__ is Rational:
        return q.numerator if q.denominator == 1 else q
    return _coefficient(q)


def exact(value) -> int | Rational | None:
    """An exact rational as an integer-first coefficient, converted from
    another type where needed; None for anything else."""
    if isinstance(value, int):
        return value
    q = _parts(value)
    if q is None:
        return None
    return q[0] if q[1] == 1 else _rational(*q)


def _coefficient(value) -> int | Rational:
    """An exact rational argument as an integer-first coefficient."""
    q = exact(value)
    if q is None:
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    return q


_FORMS: dict[tuple, "LinearForm"] = {}  # canonical coefficients -> the interned form


class LinearForm:
    """Rational linear form sum(c_i * x_i); the l of exp(l).

    Coefficients are stored sparsely as (symbol index, coefficient) pairs,
    sorted by index, with zero coefficients dropped and integral ones
    demoted to `int`.  The empty tuple is the zero form.

    Forms are interned (hash-consed): `LinearForm(pairs)` is the one
    constructor, and it returns the single shared instance for its
    canonical coefficients.  So equality is identity, and `object.__eq__`
    serves.  The hash is derived from the coefficients, never from the
    address, so the order of a dict or set of forms, and every report byte
    that follows it, is the same in every run.  Each form memoises its
    sums by addend and keeps the dense row that terms sort by.  The table
    `_FORMS` lives as long as the process and never drops a form: the
    parser's budgets bound the forms one document reaches, not the total
    over every document a long-lived process reads.
    """

    __slots__ = ("coeffs", "_hash", "_dense", "_sums")
    __setattr__ = __delattr__ = read_only

    def __new__(cls, coeffs: Iterable[tuple[int, int | Rational]] = ()):
        key = tuple((i, _coefficient(c)) for i, c in sorted(coeffs) if c != 0)
        form = _FORMS.get(key)
        if form is None:
            form = object.__new__(cls)
            object.__setattr__(form, "coeffs", key)
            object.__setattr__(form, "_hash", hash((key,)))
            object.__setattr__(form, "_dense", None)
            object.__setattr__(form, "_sums", {})
            _FORMS[key] = form
        return form

    def __hash__(self):
        return self._hash

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinearForm") -> "LinearForm":
        total = self._sums.get(other)
        if total is None:
            acc = dict(self.coeffs)
            for i, c in other.coeffs:
                acc[i] = acc.get(i, 0) + c
            total = self._sums[other] = LinearForm(acc.items())
        return total

    def __neg__(self) -> "LinearForm":
        return LinearForm((i, -c) for i, c in self.coeffs)

    def coefficient(self, index: int) -> int | Rational:
        for i, c in self.coeffs:
            if i == index:
                return c
        return 0

    def dense(self, width: int) -> tuple[int | Rational, ...]:
        row = self._dense
        if row is None or len(row) != width:
            cells = [0] * width
            for i, c in self.coeffs:
                cells[i] = c
            row = tuple(cells)
            object.__setattr__(self, "_dense", row)
        return row

    def render(self, symbols: Sequence[str]) -> str:
        parts = []
        for i, c in self.coeffs:
            body = symbols[i] if abs(c) == 1 else f"{abs(c)}*{symbols[i]}"
            parts.append(body if c > 0 else f"-{body}")
        return signed_sum(parts)


class Term:
    """One canonical summand: coeff * monomial * exp(linear form)."""

    __slots__ = ("coeff", "monomial", "exponent")
    __setattr__ = __delattr__ = read_only

    def __init__(
        self,
        coeff: int | Rational,
        monomial: tuple[tuple[int, int], ...] = (),
        exponent: LinearForm = LinearForm(),
    ):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "exponent", exponent)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coeff, self.monomial, self.exponent) == (
            other.coeff,
            other.monomial,
            other.exponent,
        )

    def __hash__(self):
        return hash((self.coeff, self.monomial, self.exponent))

    def key(self, width: int) -> tuple:
        mono = [0] * width
        for i, k in self.monomial:
            mono[i] = k
        return (self.exponent.dense(width), tuple(mono))


def mul_terms(a: Sequence[Term], b: Sequence[Term]) -> Sequence[Term]:
    """Every product of a term of `a` with a term of `b`, not yet normalized:
    the products of `*` and `divide`, and of each factor of a contraction
    but its last (see `multiply_into`)."""
    if len(b) == 1 and not b[0].monomial and not b[0].exponent.coeffs:
        a, b = b, a
    if len(a) == 1 and not a[0].monomial and not a[0].exponent.coeffs:
        q = a[0].coeff  # a rational constant only rescales
        if q == 1:
            return b
        return [Term(demote(q * t.coeff), t.monomial, t.exponent) for t in b]
    return [
        Term(
            demote(s.coeff * t.coeff),
            _mul_monomials(s.monomial, t.monomial),
            s.exponent + t.exponent,
        )
        for s in a
        for t in b
    ]


def _mul_monomials(
    a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for i, k in b:
        acc[i] = acc.get(i, 0) + k
    return tuple(sorted((i, k) for i, k in acc.items() if k))


# A table of like terms: (monomial, exponent) -> their summed coefficient.
Sums = dict[tuple[tuple[tuple[int, int], ...], LinearForm], int | Rational]


def multiply_into(
    sums: dict[tuple, Sums],
    coeff: int | Rational,
    rows: Iterable[tuple[tuple, Sequence[Term], Sequence[Term]]],
) -> None:
    """For each row (key, a, b), add coeff times every product of a term
    of `a` with a term of `b` to the table `sums[key]`, made when absent.

    Each product is merged into its like terms as it is made, so no `Term`
    is built for it; `ScalarExpr.collected` makes a table canonical.
    """
    for key, a, b in rows:
        table = sums.get(key)
        if table is None:
            table = sums[key] = {}
        for s in a:
            sm, se = s.monomial, s.exponent
            q = s.coeff if coeff == 1 else coeff * s.coeff
            if not sm and not se.coeffs:  # a rational constant only rescales
                unit = q == 1
                for t in b:
                    k = (t.monomial, t.exponent)
                    c = t.coeff if unit else q * t.coeff
                    old = table.get(k)
                    table[k] = c if old is None else old + c
                continue
            for t in b:
                k = (_mul_monomials(sm, t.monomial), se + t.exponent)
                c = q * t.coeff
                old = table.get(k)
                table[k] = c if old is None else old + c


class ScalarExpr:
    """Canonical element of the scalar ring over a fixed symbol tuple."""

    __slots__ = ("symbols", "terms")
    __setattr__ = __delattr__ = read_only

    def __init__(self, symbols: tuple[str, ...], terms: tuple[Term, ...] = ()):
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.symbols, self.terms) == (other.symbols, other.terms)

    def __hash__(self):
        return hash((self.symbols, self.terms))

    # -- constructors -------------------------------------------------

    @staticmethod
    def normalize(symbols: tuple[str, ...], terms: Iterable[Term]) -> "ScalarExpr":
        """Merge like terms into one table, then make it canonical (`collected`)."""
        sums: Sums = {}
        for t in terms:
            k = (t.monomial, t.exponent)
            old = sums.get(k)
            sums[k] = t.coeff if old is None else old + t.coeff
        return ScalarExpr.collected(symbols, sums)

    @staticmethod
    def collected(symbols: tuple[str, ...], sums: Sums) -> "ScalarExpr":
        """The canonical expression of a table of like terms, (monomial,
        exponent) -> summed coefficient: zeros dropped, coefficients
        demoted, terms sorted by `Term.key`."""
        kept = [
            Term(c if c.__class__ is int else demote(c), m, e)
            for (m, e), c in sums.items()
            if c != 0
        ]
        if len(kept) > 1:
            width = len(symbols)
            kept.sort(key=lambda t: t.key(width))
        return ScalarExpr(symbols, tuple(kept))

    @staticmethod
    def zero(symbols: tuple[str, ...]) -> "ScalarExpr":
        return ScalarExpr(symbols, ())

    @staticmethod
    def const(value, symbols: tuple[str, ...]) -> "ScalarExpr":
        q = _coefficient(value)
        if q == 0:
            return ScalarExpr(symbols, ())
        return ScalarExpr(symbols, (Term(q),))

    @staticmethod
    def coordinate(name: str, symbols: tuple[str, ...]) -> "ScalarExpr":
        i = _symbol_index(name, symbols)
        return ScalarExpr(symbols, (Term(1, ((i, 1),)),))

    @staticmethod
    def exponential(coeffs: Mapping[str, Rational], symbols: tuple[str, ...]) -> "ScalarExpr":
        """exp of the linear form given by symbol-name -> coefficient."""
        form = LinearForm(
            (_symbol_index(n, symbols), c) for n, c in coeffs.items()
        )
        return ScalarExpr(symbols, (Term(1, (), form),))

    # -- ring operations ----------------------------------------------

    def _check(self, other: "ScalarExpr") -> None:
        if self.symbols != other.symbols:
            raise ChartMismatch(
                f"operands use different charts: {self.symbols} vs {other.symbols}"
            )

    def __add__(self, other):
        if not isinstance(other, ScalarExpr):
            q = exact(other)
            if q is None:
                return NotImplemented
            other = ScalarExpr.const(q, self.symbols)
        self._check(other)
        return ScalarExpr.normalize(self.symbols, self.terms + other.terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return ScalarExpr(
            self.symbols,
            tuple(Term(-t.coeff, t.monomial, t.exponent) for t in self.terms),
        )

    def __sub__(self, other):
        if not isinstance(other, ScalarExpr):
            other = exact(other)
            if other is None:
                return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if not isinstance(other, ScalarExpr):
            q = exact(other)
            if q is None:
                return NotImplemented
            other = ScalarExpr.const(q, self.symbols)
        self._check(other)
        return ScalarExpr.normalize(self.symbols, mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("powers must be non-negative integers")
        result = ScalarExpr.const(1, self.symbols)
        base = self
        while power:  # repeated squaring
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def invert(self) -> "ScalarExpr":
        """Exact inverse of a unit q*exp(l); anything else raises NonInvertible."""
        return ScalarExpr.const(1, self.symbols).divide(self)

    def divide(self, other: "ScalarExpr", max_terms: int | None = None) -> "ScalarExpr":
        """The q with q * other == self: NonInvertible when the ring holds
        none, TooManyTerms once q is seen to need more than `max_terms` terms.

        A product of terms adds their keys, so each step divides the leading
        (last) term of the remainder by that of `other`.  Per exp coefficient
        and per monomial degree, the least and the greatest values over the
        terms of a product add up (the ring is a domain): a quotient term
        outside that box, or with a negative exponent, shows that `other`
        does not divide self.  The box holds finitely many terms, so the loop ends.
        """
        self._check(other)
        if not other.terms:
            raise NonInvertible("division by zero")
        if max_terms is not None and len(self.terms) > max_terms * len(other.terms):
            raise TooManyTerms(f"quotient needs more than {max_terms} terms")
        width, lead = len(self.symbols), other.terms[-1]
        shift, down = -lead.exponent, tuple((i, -k) for i, k in lead.monomial)

        def quotient_term(t: Term) -> Term:
            monomial = _mul_monomials(t.monomial, down)
            if any(k < 0 for _, k in monomial):
                raise NonInvertible(f"{other} does not divide {self}")
            q = Rational(t.coeff.numerator * lead.coeff.denominator,
                         t.coeff.denominator * lead.coeff.numerator)
            return Term(demote(q), monomial, t.exponent + shift)

        if len(other.terms) == 1:  # term by term, which keeps the order
            return ScalarExpr(self.symbols, tuple(map(quotient_term, self.terms)))

        def columns(e: ScalarExpr):  # per exp coefficient, then per degree
            return zip(*(sum(t.key(width), ()) for t in e.terms))

        box = [(min(a) - min(b), max(a) - max(b)) for a, b in zip(columns(self), columns(other))]
        quotient, rest, minus = [], self, (-other).terms
        while rest.terms:
            t = quotient_term(rest.terms[-1])
            if not all(lo <= c <= hi for (lo, hi), c in zip(box, sum(t.key(width), ()))):
                raise NonInvertible(f"{other} does not divide {self}")
            quotient.append(t)
            if max_terms is not None and len(quotient) > max_terms:
                raise TooManyTerms(f"quotient needs more than {max_terms} terms")
            rest = ScalarExpr.normalize(self.symbols, [*rest.terms, *mul_terms(minus, (t,))])
        return ScalarExpr(self.symbols, tuple(reversed(quotient)))

    def diff(self, name: str) -> "ScalarExpr":
        """Partial derivative with respect to one chart symbol."""
        i = _symbol_index(name, self.symbols)
        out: list[Term] = []
        for t in self.terms:
            for j, k in t.monomial:
                if j == i:
                    lowered = tuple((m, p - (m == i)) for m, p in t.monomial if (m, p) != (i, 1))
                    out.append(Term(t.coeff * k, lowered, t.exponent))
            c = t.exponent.coefficient(i)
            if c != 0:
                out.append(Term(t.coeff * c, t.monomial, t.exponent))
        return ScalarExpr.normalize(self.symbols, out)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1
            and not self.terms[0].monomial
            and self.terms[0].exponent.is_zero()
        )

    def as_rational(self) -> Rational:
        """The constant as a `Rational`, also when it is stored as an `int`,
        so that dividing it never gives a float."""
        if not self.is_constant():
            raise NonInvertible(f"not a rational constant: {self}")
        q = self.terms[0].coeff if self.terms else 0
        return Rational(q.numerator, q.denominator)

    # -- rendering -------------------------------------------------------

    def _render_term(self, t: Term) -> str:
        factors: list[str] = []
        for i, k in t.monomial:
            factors.append(self.symbols[i] if k == 1 else f"{self.symbols[i]}^{k}")
        if not t.exponent.is_zero():
            factors.append(f"exp({t.exponent.render(self.symbols)})")
        mag = abs(t.coeff)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        return body if t.coeff > 0 else f"-{body}"

    def __str__(self) -> str:
        return signed_sum([self._render_term(t) for t in self.terms])

    def __repr__(self) -> str:
        return f"ScalarExpr({self})"


def signed_sum(parts: Sequence[str]) -> str:
    """Rendered summands joined as "a + b - c"; a part "-x" is subtracted."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _symbol_index(name: str, symbols: tuple[str, ...]) -> int:
    try:
        return symbols.index(name)
    except ValueError:
        raise UnknownSymbol(
            f"unknown symbol {name!r}; chart symbols are {', '.join(symbols)}"
        ) from None


class DocumentError(ValueError):
    """Parse or semantic error in a manifold document, with position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        place = "" if line is None else f"{line}:{col or 0}: "
        super().__init__(f"{place}{message}")
        self.message = message
        self.line = line
        self.col = col


# Most terms a document coefficient may have, checked at each `+`, `-`, `*`
# and `^` as it is built, and the budget of the frame inverse and of check
# A10's elimination.  Every tensor entry multiplies such coefficients, so a
# 961-term frame coefficient that keeps within the parser's other bounds
# made `check` run for over a minute.  The shipped, test and generated
# documents need at most 4 terms.
MAX_COEFFICIENT_TERMS = 40
