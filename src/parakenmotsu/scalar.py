"""Exact scalar arithmetic for chart functions.

Everything the engine differentiates or tests for zero lives in one small
ring: finite sums of terms

    q * x1^k1 * ... * xm^km * exp(l)

where q is an exact rational, the k's are non-negative integer exponents
over the chart symbols and l is a linear form in the symbols with rational
coefficients.  The ring is closed under addition, multiplication and
partial differentiation, and every expression has a unique canonical form
(terms sorted by exponent, then monomial), so equality and zero-testing
are decidable by construction.  Division is exact: `divide` returns the
quotient when the ring holds one, within an optional term budget, and
raises otherwise; so only the units q*exp(l) invert.

Coefficients, q and those of l, are integer-first: an `int` when integral
and a `Fraction` only when the denominator is not 1 (:func:`demote`).
Nearly all of them are integers, and `int` arithmetic is far cheaper.
`Fraction(k) == k`, the two hash alike and print alike, so equality,
hashing and rendering do not depend on the representation.  A value that
leaves the ring (`as_rational`) is always a `Fraction`, since `int / int`
would give a float.

Expression text such as ``2*x^2*exp(-2*z)`` round-trips through
:func:`parse_scalar` and ``str()``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, log2
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence


class ChartMismatch(ValueError):
    """Raised when operands belong to different charts."""


class NonInvertible(ValueError):
    """Raised when an expression has no inverse inside the ring."""


class TooManyTerms(ValueError):
    """Raised when a result would have more terms than its budget."""


class UnknownSymbol(ValueError):
    """Raised for a symbol name that is not part of the chart."""


def demote(q: int | Fraction) -> int | Fraction:
    """q as an `int` when it is integral, else q itself."""
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


def _coefficient(value) -> int | Fraction:
    """An exact rational argument as an integer-first coefficient."""
    if isinstance(value, (int, Fraction)):
        return demote(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


_FORMS: dict[tuple, "LinearForm"] = {}  # canonical coefficients -> the interned form


def read_only(self, name, *value):
    """`__setattr__` and `__delattr__` of the immutable value types.

    Their `__init__` sets each field once, bypassing this method.
    """
    raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")


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

    def __new__(cls, coeffs: Iterable[tuple[int, int | Fraction]] = ()):
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

    def coefficient(self, index: int) -> int | Fraction:
        for i, c in self.coeffs:
            if i == index:
                return c
        return 0

    def dense(self, width: int) -> tuple[int | Fraction, ...]:
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
        coeff: int | Fraction,
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
    """Every product of a term of `a` with a term of `b`, not yet normalized."""
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
        """Collect like terms, drop zeros, demote coefficients and sort."""
        firsts: dict[tuple, Term] = {}
        sums: dict[tuple, int | Fraction] = {}
        for t in terms:
            k = (t.monomial, t.exponent)
            if k in sums:
                sums[k] += t.coeff
            else:
                sums[k] = t.coeff
                firsts[k] = t
        kept = []
        for k, c in sums.items():
            if c == 0:
                continue
            t = firsts[k]
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            if c is not t.coeff:  # merged with a like term, or demoted
                t = Term(c, t.monomial, t.exponent)
            kept.append(t)
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
    def exponential(coeffs: Mapping[str, Fraction], symbols: tuple[str, ...]) -> "ScalarExpr":
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
        if isinstance(other, (int, Fraction)):
            other = ScalarExpr.const(other, self.symbols)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
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
        if not isinstance(other, (int, Fraction, ScalarExpr)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarExpr.const(other, self.symbols)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
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
            return Term(demote(Fraction(t.coeff) / lead.coeff), monomial, t.exponent + shift)

        if len(other.terms) == 1:  # term by term, which keeps the order
            return ScalarExpr(self.symbols, tuple(map(quotient_term, self.terms)))

        def columns(e: ScalarExpr):  # per exp coefficient, then per degree
            return zip(*(sum(t.key(width), ()) for t in e.terms))

        box = [(min(a) - min(b), max(a) - max(b)) for a, b in zip(columns(self), columns(other))]
        quotient, rest = [], self
        while rest.terms:
            t = quotient_term(rest.terms[-1])
            if not all(lo <= c <= hi for (lo, hi), c in zip(box, sum(t.key(width), ()))):
                raise NonInvertible(f"{other} does not divide {self}")
            quotient.append(t)
            if max_terms is not None and len(quotient) > max_terms:
                raise TooManyTerms(f"quotient needs more than {max_terms} terms")
            rest = rest - other * ScalarExpr(self.symbols, (t,))
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

    def as_rational(self) -> Fraction:
        """The constant as a `Fraction`, whatever the stored coefficient."""
        if not self.is_constant():
            raise NonInvertible(f"not a rational constant: {self}")
        return Fraction(self.terms[0].coeff if self.terms else 0)

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


# ---------------------------------------------------------------------------
# Expression text: tokenizer and recursive-descent parser.
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


class ExprSyntaxError(ValueError):
    """Syntax error in expression or document text, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


_EXPR_SPEC = [
    ("WS", r"[ \t]+"),
    ("NUM", r"\d+"),
    ("IDENT", r"[A-Za-z_]\w*"),
    ("OP", r"[-+*^/()]"),
]

_DSL_SPEC = [
    ("WS", r"[ \t]+"),
    ("COMMENT", r"#[^\n]*"),
    ("ARROW", r"->"),
    ("DDERIV", r"d/d[A-Za-z_]\w*"),
    ("NUM", r"\d+"),
    ("IDENT", r"[A-Za-z_]\w*"),
    ("EQUALS", r"="),
    ("OP", r"[-+*^/()]"),
]


def _compile(spec) -> re.Pattern:
    return re.compile("|".join(f"(?P<{k}>{p})" for k, p in spec))


_EXPR_RE = _compile(_EXPR_SPEC)
_DSL_RE = _compile(_DSL_SPEC)


def tokenize(text: str, line: int = 1, dsl: bool = False) -> list[Token]:
    pattern = _DSL_RE if dsl else _EXPR_RE
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", line, pos + 1)
        kind = m.lastgroup
        if kind == "NUM" and m.end() - pos > MAX_LITERAL_DIGITS:
            raise ExprSyntaxError(
                f"number literal longer than {MAX_LITERAL_DIGITS} digits", line, pos + 1
            )
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, m.group(), line, m.start() + 1))
        pos = m.end()
    return tokens


_EXPR_TOKENS = {"NUM", "IDENT"}
_EXPR_OPS = set("-+*^/()")
# Deepest nesting of parentheses, exp( and unary minus in one expression.
# The parser recurses once per level, so this keeps hostile input far from
# Python's recursion limit and far above what a real coefficient needs.
MAX_NESTING = 64
# Most terms one `*` or `^` in an expression may expand to, counted before
# the expansion: len(a) * len(b) raw products for a * b, and the
# C(k+m-1, m-1) monomials of degree k in m terms for an m-term base ^ k.
# Both grow as a power of the input length, so without them a one-line
# coefficient can run for minutes.  The power limit is the smaller one
# because the squarings that build a T-term power multiply up to (T/2)^2
# pairs.  The shipped, test and generated benchmark documents need at
# most 4 raw products and 3 power terms.
MAX_PRODUCT_TERMS = 1000
MAX_POWER_TERMS = 300
# Longest number literal, in digits, in expressions and in every other
# number of a document (the tokenizer checks it), and the widest coefficient
# one `*` or `^` may make, in bits, estimated before it is computed.  Python
# refuses to convert an int of more than 4,300 digits to or from text, and
# 10,000 bits are about 3,000 digits.  Sums are checked after each `+` or
# `-`, since their width is known only once the common denominator is.
# The shipped, test and generated documents need 2 digits and 3 bits; the
# widest test expressions need 6 digits and 1,000 bits.
MAX_LITERAL_DIGITS = 100
MAX_COEFFICIENT_BITS = 10_000
# Most terms a document coefficient may have, checked at each `+`, `-`, `*`
# and `^` as it is built.  Every tensor entry multiplies such coefficients,
# so a 961-term frame coefficient that keeps within the budgets above made
# `check` run for over a minute.  The shipped, test and generated documents
# need at most 4 terms.  `parse_scalar` is not bounded: its callers write
# the expression.
MAX_COEFFICIENT_TERMS = 40


def _coefficient_bits(e: ScalarExpr) -> float:
    """log2 of the widest numerator or denominator among e's coefficients."""
    return max(
        (log2(max(abs(t.coeff.numerator), t.coeff.denominator)) for t in e.terms),
        default=0.0,
    )


class _Parser:
    def __init__(
        self,
        tokens: Sequence[Token],
        pos: int,
        symbols: tuple[str, ...],
        line: int,
        max_terms: int | None,
    ):
        self.tokens = tokens
        self.pos = pos
        self.symbols = symbols
        self.line = line
        self.max_terms = max_terms
        self.depth = 0

    def bounded(self, value: ScalarExpr, at: Token) -> ScalarExpr:
        """value, unless it has more than `max_terms` terms."""
        if self.max_terms is not None and len(value.terms) > self.max_terms:
            raise ExprSyntaxError(
                f"coefficient has {len(value.terms)} terms, more than {self.max_terms}",
                at.line,
                at.col,
            )
        return value

    def peek(self) -> Token | None:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            if t.kind in _EXPR_TOKENS or (t.kind == "OP" and t.text in _EXPR_OPS):
                return t
        return None

    def error(self, message: str) -> ExprSyntaxError:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return ExprSyntaxError(message + f" (near {t.text!r})", t.line, t.col)
        if self.pos:  # point at the dangling last token
            t = self.tokens[self.pos - 1]
            return ExprSyntaxError(message + " (at end of input)", t.line, t.col)
        return ExprSyntaxError(message + " (at end of input)", self.line, 0)

    def nested(self, at: Token, parse: Callable[[], ScalarExpr]) -> ScalarExpr:
        """parse() one nesting level below `at`, at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels", at.line, at.col
            )
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def take_op(self, ops: str) -> Token | None:
        t = self.peek()
        if t is not None and t.kind == "OP" and t.text in ops:
            self.pos += 1
            return t
        return None

    def expect_op(self, op: str) -> Token:
        t = self.take_op(op)
        if t is None:
            raise self.error(f"expected {op!r}")
        return t

    def parse_expr(self) -> ScalarExpr:
        value = self.parse_product()
        while True:
            t = self.take_op("+-")
            if t is None:
                return value
            rhs = self.parse_product()
            value = self.bounded(value + rhs if t.text == "+" else value - rhs, t)
            # a sum of fractions grows its common denominator term by term
            if _coefficient_bits(value) > MAX_COEFFICIENT_BITS:
                raise ExprSyntaxError(
                    f"sum has coefficients wider than {MAX_COEFFICIENT_BITS} bits",
                    t.line,
                    t.col,
                )

    def parse_product(self) -> ScalarExpr:
        value = self.parse_factor()
        while True:
            star = self.take_op("*")
            if star is None:
                return value
            rhs = self.parse_factor()
            if len(value.terms) * len(rhs.terms) > MAX_PRODUCT_TERMS:
                raise ExprSyntaxError(
                    f"product of {len(value.terms)} and {len(rhs.terms)} terms"
                    f" exceeds {MAX_PRODUCT_TERMS} term products",
                    star.line,
                    star.col,
                )
            if _coefficient_bits(value) + _coefficient_bits(rhs) > MAX_COEFFICIENT_BITS:
                raise ExprSyntaxError(
                    f"product has coefficients wider than {MAX_COEFFICIENT_BITS} bits",
                    star.line,
                    star.col,
                )
            value = self.bounded(value * rhs, star)

    def parse_factor(self) -> ScalarExpr:
        minus = self.take_op("-")
        if minus is not None:
            return -self.nested(minus, self.parse_factor)
        atom = self.parse_atom()
        caret = self.take_op("^")
        if caret is not None:
            t = self.peek()
            if t is None or t.kind != "NUM":
                raise self.error("expected a non-negative integer power after '^'")
            self.pos += 1
            power, m = int(t.text), len(atom.terms)
            if m > 1 and comb(power + m - 1, m - 1) > MAX_POWER_TERMS:
                raise ExprSyntaxError(
                    f"power {power} of a {m}-term sum expands to more than"
                    f" {MAX_POWER_TERMS} terms",
                    caret.line,
                    caret.col,
                )
            # an m-term power's coefficients also carry multinomials below m^k
            if m and power * (_coefficient_bits(atom) + log2(m)) > MAX_COEFFICIENT_BITS:
                raise ExprSyntaxError(
                    f"power {power} has coefficients wider than"
                    f" {MAX_COEFFICIENT_BITS} bits",
                    caret.line,
                    caret.col,
                )
            return self.bounded(atom**power, caret)
        return atom

    def parse_atom(self) -> ScalarExpr:
        t = self.peek()
        if t is None:
            raise self.error("expected an expression")
        if t.kind == "NUM":
            self.pos += 1
            numer = int(t.text)
            if self.take_op("/"):
                d = self.peek()
                if d is None or d.kind != "NUM":
                    raise self.error("expected an integer denominator")
                self.pos += 1
                if int(d.text) == 0:
                    raise ExprSyntaxError("zero denominator", d.line, d.col)
                return ScalarExpr.const(Fraction(numer, int(d.text)), self.symbols)
            return ScalarExpr.const(numer, self.symbols)
        if t.kind == "IDENT" and t.text == "exp":
            self.pos += 1
            inner = self.nested(self.expect_op("("), self.parse_expr)
            self.expect_op(")")
            return self._to_exponential(inner, t)
        if t.kind == "IDENT":
            self.pos += 1
            if t.text not in self.symbols:
                raise ExprSyntaxError(
                    f"unknown symbol {t.text!r}; chart symbols are "
                    + ", ".join(self.symbols),
                    t.line,
                    t.col,
                )
            return ScalarExpr.coordinate(t.text, self.symbols)
        if t.kind == "OP" and t.text == "(":
            self.pos += 1
            inner = self.nested(t, self.parse_expr)
            self.expect_op(")")
            return inner
        raise self.error("expected an expression")

    def _to_exponential(self, inner: ScalarExpr, at: Token) -> ScalarExpr:
        coeffs: dict[int, Fraction] = {}
        for term in inner.terms:
            if not term.exponent.is_zero() or [k for _, k in term.monomial] != [1]:
                raise ExprSyntaxError(
                    "exp argument must be a rational linear form in the chart symbols",
                    at.line,
                    at.col,
                )
            (i, _), = term.monomial
            coeffs[i] = coeffs.get(i, 0) + term.coeff
        form = LinearForm(coeffs.items())
        return ScalarExpr(inner.symbols, (Term(1, (), form),))


def parse_expr_tokens(
    tokens: Sequence[Token], pos: int, symbols: tuple[str, ...], line: int = 1
) -> tuple[ScalarExpr, int]:
    """Parse a document coefficient from a token slice, at most
    MAX_COEFFICIENT_TERMS terms; returns (expr, next position)."""
    p = _Parser(tokens, pos, symbols, line, MAX_COEFFICIENT_TERMS)
    expr = p.parse_expr()
    return expr, p.pos


def parse_scalar(text: str, symbols: tuple[str, ...]) -> ScalarExpr:
    """Parse expression text over the given chart symbols."""
    tokens = tokenize(text)
    p = _Parser(tokens, 0, symbols, 1, None)
    expr, end = p.parse_expr(), p.pos
    if end != len(tokens):
        t = tokens[end]
        raise ExprSyntaxError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return expr
