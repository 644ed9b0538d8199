"""Presented Z x Z-graded algebras over Z[eps]/(eps^2 - 1).

Elements live on the sorted-word basis of the reference product; a
convention acts only through multiplication, so re-evaluating the same
expression under two conventions compares two products on one underlying
group.  Sorting a word into canonical generator order charges the
reference commutation unit of every inverted letter pair; that unit is an
F2 bilinear form in the two degrees, so a pair of words is charged through
the parity of each generator's count: XOR masks over the words, tabulated
per presentation, and one popcount per sign bit.  A convention's twist
enters once per factor pair.

Coefficients of a monomial are reduced modulo an annihilator lattice:

* the commutation law itself forces (1 - kappa(d, d)) to annihilate any
  monomial containing a repeated generator of degree d (for example a
  generator of degree (1, 1) squares to an eps-invariant class);
* a single-term relation c * m = 0 with non-unit c contributes c to the
  annihilator of every monomial divisible by m.

Annihilator coefficients stay in the generic coefficient ring even when
elements are evaluated under a specialized mode, so an eps-torsion
relation never silently turns into integer torsion.  Relations with a
unit leading coefficient are instead applied as rewrite rules, replacing
the leading monomial by the negated tail until a fixed point.  Without
rules, a product chain is reduced once, at its end (see `_product`).
"""

from __future__ import annotations

import math
import re
import sys
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Iterable, Sequence

from .conventions import Convention, base_commutation, commutation_unit, convention
from .errors import (
    InhomogeneousError,
    ModeMismatchError,
    MotsignError,
    ParseError,
    RewriteLimitError,
)
from .units import (
    Bidegree,
    Coef,
    CoefMode,
    GENERIC,
    UNITS,
    Unit,
    _unit,
    is_unit_coef,
    specialize,
)

__all__ = [
    "Generator",
    "Element",
    "ZERO",
    "Presentation",
    "Expr",
    "NameExpr",
    "IntExpr",
    "NegExpr",
    "MulExpr",
    "AddExpr",
    "TransportReport",
    "MAX_REWRITE_PASSES",
    "MAX_NESTING",
    "MAX_EXPONENT",
    "parse_expression",
    "normalize",
    "multiply",
    "add_elements",
    "scalar_mul",
    "graded_commutator",
    "generator_element",
    "scalar_element",
    "eval_expr",
    "transport_check",
    "presentation_to_json",
    "presentation_from_json",
]

MAX_REWRITE_PASSES = 10_000
MAX_BASIS_CACHE = 2**16  # annihilator bases kept per presentation; a miss past it drops the oldest
MAX_NESTING = 100  # parentheses and unary minus, nested
MAX_EXPONENT = 1000  # largest n in a postfix power g^n

Monomial = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_RESERVED_NAMES = frozenset({"eps"})


@dataclass(frozen=True)
class Generator:
    name: str
    degree: Bidegree


@dataclass(frozen=True)
class Element:
    """Homogeneous linear combination of sorted generator words.

    terms maps each monomial (a sorted tuple of generator indices) to a
    canonical nonzero coefficient; the zero element has no terms and no
    degree.  Every term has bidegree `degree`: the operations rely on it,
    and `multiply` takes the product's degree and twist from its factors'.
    """

    terms: tuple[tuple[Monomial, Coef], ...]
    degree: Bidegree | None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def render(self, pres: "Presentation") -> str:
        if not self.terms:
            return "0"
        parts = []
        for monomial, coef in self.terms:
            word = _render_monomial(monomial, pres)
            try:
                text = str(coef)
            except ValueError:  # past the interpreter's integer-string digit limit
                limit = sys.get_int_max_str_digits()
                raise MotsignError(f"coefficient over the {limit}-digit integer limit: cannot render") from None
            if not word:
                parts.append(text)
            elif coef == Coef(1):
                parts.append(word)
            elif coef == Coef(-1):
                parts.append(f"-{word}")
            elif coef.a != 0 and coef.b != 0:
                parts.append(f"({text})*{word}")
            else:
                parts.append(f"{text}*{word}")
        return " + ".join(parts)


ZERO = Element((), None)


def _render_monomial(monomial: Monomial, pres: "Presentation") -> str:
    factors = []
    for idx, count in sorted(Counter(monomial).items()):
        name = pres.generators[idx].name
        # powers past MAX_EXPONENT are split into factors the parser accepts
        whole, part = divmod(count, MAX_EXPONENT)
        factors += [f"{name}^{MAX_EXPONENT}"] * whole
        if part:
            factors.append(name if part == 1 else f"{name}^{part}")
    return "*".join(factors)


# ---------- integer lattice reduction for annihilator ideals ----------


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = a x + b y and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_basis(vectors: Iterable[tuple[int, int]]) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
    """Canonical basis (v1, v2) of the lattice spanned by the vectors,
    echelonized against the eps coordinate first: v1 = (a1, b1) with
    b1 > 0, v2 = (a2, 0) with a2 > 0; either may be absent."""
    v1: tuple[int, int] | None = None
    a_gcd = 0
    for vec in vectors:
        if vec == (0, 0):
            continue
        if vec[1] == 0:
            a_gcd = math.gcd(a_gcd, abs(vec[0]))
            continue
        if v1 is None:
            v1 = vec
            continue
        g, x, y = _ext_gcd(v1[1], vec[1])
        merged = (x * v1[0] + y * vec[0], g)
        a_gcd = math.gcd(a_gcd, abs(v1[0] - (v1[1] // g) * merged[0]))
        a_gcd = math.gcd(a_gcd, abs(vec[0] - (vec[1] // g) * merged[0]))
        v1 = merged
    if v1 is not None and v1[1] < 0:
        v1 = (-v1[0], -v1[1])
    v2 = (a_gcd, 0) if a_gcd else None
    if v1 is not None and v2 is not None:
        v1 = (v1[0] % v2[0], v1[1])
    return v1, v2


def _reduce_mod_lattice(c: Coef, basis: tuple[tuple[int, int] | None, tuple[int, int] | None]) -> Coef:
    v1, v2 = basis
    a, b = c.a, c.b
    if v1 is not None:
        k = b // v1[1]
        a -= k * v1[0]
        b -= k * v1[1]
    if v2 is not None:
        a %= v2[0]
    return Coef(a, b)


# ---------- monomial helpers ----------


def _quotient(m: Monomial, div: Monomial) -> Monomial | None:
    """m / div for sorted index tuples, or None when div does not divide m."""
    out = list(m)
    try:
        for x in div:
            out.remove(x)  # the first occurrence, so out stays sorted
    except ValueError:
        return None
    return tuple(out)


def _xor_over(table: tuple[int, ...], word: Monomial) -> int:
    """XOR of table[i] over the word's letters i: a letter that occurs an
    even number of times cancels."""
    return reduce(xor, map(table.__getitem__, word), 0)


def _merge_words(m1: Monomial, m2: Monomial, pres: "Presentation") -> tuple[Monomial, Unit]:
    """Sorted union of two sorted words and the product of reference
    commutation units over strictly inverted cross pairs.

    Every unit has order 2, so that product is the product over generator
    pairs i > j of B(i, j)^(c1_i c2_j), B the reference commutation unit
    and c1, c2 the letter counts of m1, m2: each sign bit is the parity of
    the pairs (i, j) with both counts odd and that bit set in B(i, j)."""
    odd = _xor_over(pres._bits, m1)
    s = _xor_over(pres._s_above, m2) & odd
    t = _xor_over(pres._t_above, m2) & odd
    return tuple(sorted(m1 + m2)), _unit(s.bit_count(), t.bit_count())


def _signed(c: Coef, s: int, t: int) -> Coef:
    """(-1)^s eps^t c for sign bits s and t: eps swaps c's two parts."""
    a, b = (c.b, c.a) if t & 1 else (c.a, c.b)
    return Coef(-a, -b) if s & 1 else Coef(a, b)


# ---------- presentations ----------


@dataclass(frozen=True)
class _RewriteRule:
    lead: Monomial
    neg_lead_inv: Coef
    tail: tuple[tuple[Monomial, Coef], ...]
    # parity masks (bit i: generator i occurs an odd number of times) of
    # the lead and of each tail monomial, in tail order
    lead_odd: int
    tail_odd: tuple[int, ...]


class Presentation:
    """Immutable list of graded generators plus relations.

    Relations (expression strings or prebuilt elements) are classified on
    construction: a relation whose lex-leading monomial carries a unit
    coefficient becomes a rewrite rule, and a single-term relation with a
    non-unit coefficient becomes an annihilator entry.  Anything else is
    rejected; there is no completion procedure here.
    """

    def __init__(self, generators: Sequence[Generator], relations: Sequence["Element | str"] = ()):
        gens = tuple(generators)
        seen: set[str] = set()
        for gen in gens:
            if not _NAME_RE.match(gen.name):
                raise MotsignError(f"bad generator name: {gen.name!r}")
            if gen.name in _RESERVED_NAMES:
                raise MotsignError(f"generator name {gen.name!r} is reserved")
            if gen.name in seen:
                raise MotsignError(f"duplicate generator name: {gen.name!r}")
            seen.add(gen.name)
        self.generators = gens
        self._index = {gen.name: i for i, gen in enumerate(gens)}
        self._degrees = degrees = tuple(gen.degree for gen in gens)
        # The reference commutation unit as an F2 bilinear form: bit i of
        # _s_above[j] (_t_above[j]) is the s (t) bit of B(d_i, d_j) for
        # i > j, and _bits[i] = 1 << i; see _merge_words.  The diagonal
        # gives the annihilator 1 - B(d, d) of a repeated generator.
        n = len(gens)
        self._bits = tuple(1 << i for i in range(n))
        s_above, t_above, self_ann = [0] * n, [0] * n, []
        for j in range(n):
            for i in range(j, n):
                unit = base_commutation(degrees[i], degrees[j])
                if i == j:
                    self_ann.append(Coef(1) - unit.to_coef())
                else:
                    s_above[j] |= unit.s << i
                    t_above[j] |= unit.t << i
        self._s_above, self._t_above, self._self_ann = tuple(s_above), tuple(t_above), tuple(self_ann)
        self._ann_entries: list[tuple[Monomial, Coef]] = []
        self._rules: list[_RewriteRule] = []
        self._basis_cache: dict[tuple[Monomial, int], tuple] = {}
        # relations are read as written, each on its own: no annihilator
        # reduction (the commutation law alone would turn (1-eps)*eta*eta
        # into zero) and no rewriting, since no rule exists until all are read
        self._raw = True
        relations = tuple(relations)
        elements = [eval_expr(rel, _REFERENCE, self) if isinstance(rel, str) else rel for rel in relations]
        self._raw = False
        for element in elements:
            self._classify_relation(element)
        self.relations = tuple(elements)
        self.relation_strings = tuple(rel if isinstance(rel, str) else rel.render(self) for rel in relations)

    def _classify_relation(self, element: Element) -> None:
        # checked once here: rewriting keeps bidegrees only if every rule is homogeneous
        if not isinstance(element, Element):
            raise MotsignError(f"relation is neither a string nor an Element: {element!r}")
        n = len(self.generators)
        for monomial, coef in element.terms:
            if not (isinstance(monomial, tuple) and all(type(i) is int and 0 <= i < n for i in monomial)
                    and list(monomial) == sorted(monomial)):
                raise MotsignError(f"relation word {monomial!r} is not a sorted tuple of generator indices")
            if not isinstance(coef, Coef):
                raise MotsignError(f"relation coefficient {coef!r} is not a Coef")
            if [m for m, _ in element.terms].count(monomial) > 1:
                raise MotsignError(f"relation repeats the word {_render_monomial(monomial, self) or '1'!r}")
            d = self.monomial_degree(monomial)
            if d != element.degree:
                raise InhomogeneousError(f"relation term of bidegree {d} in an element of degree {element.degree}")
        if element.is_zero:
            raise MotsignError("relation reduces to zero")
        # ranked by exponent vector: the words are distinct, so the last
        # entry is strictly greatest and rewriting strictly decreases
        ranked = sorted(element.terms, key=lambda item: [item[0].count(i) for i in range(n)])
        lead, lead_coef = ranked[-1]
        if is_unit_coef(lead_coef):
            det = lead_coef.a * lead_coef.a - lead_coef.b * lead_coef.b
            inv = Coef(lead_coef.a * det, -lead_coef.b * det)
            tail = tuple(ranked[:-1])
            odd = tuple(_xor_over(self._bits, monomial) for monomial, _ in tail)
            self._rules.append(_RewriteRule(lead, -inv, tail, _xor_over(self._bits, lead), odd))
        elif len(ranked) == 1:
            self._ann_entries.append((lead, lead_coef))
        else:
            raise MotsignError(
                "unsupported relation: need a unit leading coefficient or a single annihilator term"
            )

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MotsignError(f"unknown generator: {name!r}") from None

    def monomial_degree(self, monomial: Monomial) -> Bidegree:
        return Bidegree(sum(self._degrees[i].p for i in monomial), sum(self._degrees[i].q for i in monomial))

    def eps_annihilated_generators(self) -> frozenset[str]:
        """Names g with a declared relation (1 - eps) * g = 0."""
        associates = {Coef(1, -1), Coef(-1, 1)}
        return frozenset(
            self.generators[m[0]].name for m, coef in self._ann_entries if len(m) == 1 and coef in associates
        )

    def _annihilator_basis(self, monomial: Monomial, modulus: int):
        key = (monomial, modulus)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        vectors: list[tuple[int, int]] = []
        for div, coef in self._ann_entries:
            if _quotient(monomial, div) is not None:
                vectors.append((coef.a, coef.b))
                vectors.append((coef.b, coef.a))  # eps multiple
        for idx, count in Counter(monomial).items():
            self_coef = self._self_ann[idx]
            if count >= 2 and not self_coef.is_zero():
                vectors.append((self_coef.a, self_coef.b))
                vectors.append((self_coef.b, self_coef.a))
        if modulus:
            vectors.append((modulus, 0))
            vectors.append((0, modulus))
        basis = _hnf_basis(vectors) if vectors else (None, None)
        if len(self._basis_cache) >= MAX_BASIS_CACHE:
            del self._basis_cache[next(iter(self._basis_cache))]  # dicts keep insertion order
        self._basis_cache[key] = basis
        return basis

    def reduce_coef(self, monomial: Monomial, coef: Coef, mode: CoefMode = GENERIC) -> Coef:
        """Canonical representative of the coefficient modulo the
        monomial's annihilator ideal (and the mode's modulus).

        The one place a coefficient meets the mode: `specialize` is a
        ring homomorphism, so callers pass unspecialized products."""
        coef = specialize(coef, mode)
        if self._raw:
            return coef
        basis = self._annihilator_basis(monomial, mode.modulus)
        if basis == (None, None):
            return coef
        return _reduce_mod_lattice(coef, basis)


# ---------- element assembly ----------


def _assemble(raw: dict[Monomial, Coef], degree: Bidegree, conv: Convention, pres: Presentation) -> Element:
    """Reduce and rewrite raw terms of the caller's bidegree; rules are homogeneous."""
    mode = conv.mode
    terms: dict[Monomial, Coef] = {}
    for monomial, coef in raw.items():
        coef = pres.reduce_coef(monomial, coef, mode)
        if not coef.is_zero():
            terms[monomial] = coef
    if pres._rules:
        # least rewritable monomial first, first matching rule; rules never
        # change, so only a monomial a rewrite adds to needs another look
        passes = 0
        pending = sorted(terms)
        while pending:
            monomial = pending.pop(0)
            if monomial not in terms:
                continue
            for rule in pres._rules:
                rest = _quotient(monomial, rule.lead)
                if rest is not None:
                    break
            else:
                continue
            passes += 1
            if passes > MAX_REWRITE_PASSES:
                raise RewriteLimitError(
                    f"no fixed point after {MAX_REWRITE_PASSES} rewrite passes"
                )
            coef = terms.pop(monomial)
            for new_monomial, new_coef in _apply_rule(rest, coef, rule, pres):
                total = terms.get(new_monomial, Coef()) + new_coef
                total = pres.reduce_coef(new_monomial, total, mode)
                if total.is_zero():
                    terms.pop(new_monomial, None)
                else:
                    terms[new_monomial] = total
                    insort(pending, new_monomial)
    if not terms:
        return ZERO
    return Element(tuple(sorted(terms.items())), degree)


def _apply_rule(
    rest: Monomial,
    coef: Coef,
    rule: _RewriteRule,
    pres: Presentation,
) -> list[tuple[Monomial, Coef]]:
    """The terms replacing coef * (rule.lead * rest) under the rule.

    Every merge here has rest on the right, so rest's two masks (see
    _merge_words) are built once and met with each monomial's parity mask."""
    s_rest, t_rest = _xor_over(pres._s_above, rest), _xor_over(pres._t_above, rest)
    # the merged word is the monomial itself; its unit is its own inverse
    odd = rule.lead_odd
    factor = _signed(coef * rule.neg_lead_inv, (s_rest & odd).bit_count(), (t_rest & odd).bit_count())
    out = []
    for (tail_monomial, tail_coef), odd in zip(rule.tail, rule.tail_odd):
        merged = tuple(sorted(tail_monomial + rest))
        out.append((merged, _signed(factor * tail_coef, (s_rest & odd).bit_count(), (t_rest & odd).bit_count())))
    return out


_REFERENCE = convention("reference")


# ---------- the operations ----------


def normalize(word: Sequence[str | int], conv: Convention, pres: Presentation) -> Element:
    """Expand the product of the word's generators, taken in the given
    order under the convention, on the canonical sorted basis: the left
    fold of `multiply` over the generators."""
    if not word:
        raise MotsignError("cannot normalize an empty word")
    factors = []
    for item in word:
        idx = pres.index(item) if isinstance(item, str) else int(item)
        if not 0 <= idx < len(pres.generators):
            raise MotsignError(f"generator index out of range: {idx}")
        factors.append(idx)
    return _product(factors, conv, pres)


def _product(factors: Iterable["Element | int"], conv: Convention, pres: Presentation) -> Element:
    """Left fold of the product over the factors, in order, an int standing
    for that generator.  Without rewrite rules, raw terms are folded and
    assembled once, at the end: exact, since a word's annihilator ideal lies
    in that of each multiple of it and `specialize` is a ring homomorphism.
    With rules, each factor and partial product is assembled for rewriting."""
    deferred = not pres._rules
    x = None
    for y in factors:
        if type(y) is int:  # a generator
            raw, degree = {(y,): Coef(1)}, pres._degrees[y]
            y = Element(tuple(raw.items()), degree) if deferred else _assemble(raw, degree, conv, pres)
        if x is None or x.is_zero or y.is_zero:
            x = y if x is None else ZERO  # later factors are still evaluated, errors and all
            continue
        twist, raw = conv.twist(x.degree, y.degree), {}
        for m1, c1 in x.terms:
            for m2, c2 in y.terms:
                merged, pen = _merge_words(m1, m2, pres)
                coef = _signed(c1 * c2, twist.s ^ pen.s, twist.t ^ pen.t)
                raw[merged] = raw[merged] + coef if merged in raw else coef
        degree = x.degree + y.degree
        x = Element(tuple(raw.items()), degree) if deferred else _assemble(raw, degree, conv, pres)
    return _assemble(dict(x.terms), x.degree, conv, pres) if deferred and x.terms else x


def multiply(x: Element, y: Element, conv: Convention, pres: Presentation) -> Element:
    """Product of homogeneous elements under the convention's twist."""
    return _product((x, y), conv, pres)


def add_elements(x: Element, y: Element, conv: Convention, pres: Presentation) -> Element:
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    if x.degree != y.degree:
        raise InhomogeneousError(f"cannot add bidegrees {x.degree} and {y.degree}")
    raw = dict(x.terms)
    for monomial, coef in y.terms:
        raw[monomial] = raw.get(monomial, Coef()) + coef
    return _assemble(raw, x.degree, conv, pres)


def scalar_mul(scalar: Coef | int, x: Element, conv: Convention, pres: Presentation) -> Element:
    if isinstance(scalar, int):
        scalar = Coef(scalar)
    if x.is_zero or scalar.is_zero():
        return ZERO
    raw = {monomial: scalar * coef for monomial, coef in x.terms}
    return _assemble(raw, x.degree, conv, pres)


def graded_commutator(x: Element, y: Element, conv: Convention, pres: Presentation) -> Element:
    """x y - w(deg x, deg y) y x under the convention; identically zero in
    any free presentation."""
    if x.is_zero or y.is_zero:
        return ZERO
    w = commutation_unit(conv, x.degree, y.degree).to_coef()
    left = multiply(x, y, conv, pres)
    right = scalar_mul(-w, multiply(y, x, conv, pres), conv, pres)
    return add_elements(left, right, conv, pres)


def generator_element(name: str, conv: Convention, pres: Presentation) -> Element:
    return _product((pres.index(name),), conv, pres)


def scalar_element(value: Coef | int, conv: Convention, pres: Presentation) -> Element:
    if isinstance(value, int):
        value = Coef(value)
    return _assemble({(): value}, Bidegree(0, 0), conv, pres)


# ---------- expressions ----------


class Expr:
    """Expression tree over generator names, eps, and integers."""


@dataclass(frozen=True)
class NameExpr(Expr):
    name: str


@dataclass(frozen=True)
class IntExpr(Expr):
    value: int


@dataclass(frozen=True)
class NegExpr(Expr):
    child: Expr


@dataclass(frozen=True)
class MulExpr(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class AddExpr(Expr):
    left: Expr
    right: Expr


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[+\-*()^]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", column=pos + 1)
            break
        tokens.append((match.lastgroup, match.group(match.lastgroup), match.start() + 1))
        pos = match.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _int_literal(digits: str, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's integer-string digit limit
        raise ParseError(f"integer literal of {len(digits)} digits is too long", column=col) from None


class _ExprParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self) -> Expr:
        expr = self.expr()
        kind, value, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", column=col)
        return expr

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right = self.term()
                node = AddExpr(node, right if value == "+" else NegExpr(right))
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = MulExpr(node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, value, col = self.advance()
        if kind == "op" and value in "-(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses and unary minus nest deeper than {MAX_NESTING}", column=col)
            node = NegExpr(self.factor()) if value == "-" else self.expr()
            if value == "(":
                kind, value, col = self.advance()
                if (kind, value) != ("op", ")"):
                    raise ParseError("expected ')'", column=col)
            self.depth -= 1
            return node
        if kind == "int":
            node = IntExpr(_int_literal(value, col))
        elif kind == "name":
            node = NameExpr(value)
        else:
            raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", column=col)
        if self.peek()[:2] != ("op", "^"):
            return node
        self.advance()
        kind, value, col = self.advance()
        n = _int_literal(value, col) if kind == "int" else 0
        if not 1 <= n <= MAX_EXPONENT:
            raise ParseError(f"exponent must be an integer from 1 to {MAX_EXPONENT}", column=col)
        power = node
        for _ in range(n - 1):
            power = MulExpr(power, node)
        return power


def parse_expression(text: str) -> Expr:
    """Parse an expression over generator names, eps, integers, *, +, -,
    parentheses, and postfix powers g^n of a name or integer."""
    return _ExprParser(text).parse()


def eval_expr(expr: Expr | str, conv: Convention, pres: Presentation) -> Element:
    """Evaluate an expression tree (or string) to a canonical element.

    Each node goes to the operation it names; a left-deep chain of products
    (one `_product` fold) or sums is folded in a loop, so flat chains of
    any length need no recursion.
    """
    if isinstance(expr, str):
        expr = parse_expression(expr)
    if isinstance(expr, NameExpr):
        if expr.name == "eps":
            return scalar_element(Coef(0, 1), conv, pres)
        return generator_element(expr.name, conv, pres)
    if isinstance(expr, IntExpr):
        return scalar_element(expr.value, conv, pres)
    if isinstance(expr, NegExpr):
        return scalar_mul(-1, eval_expr(expr.child, conv, pres), conv, pres)
    if not isinstance(expr, (MulExpr, AddExpr)):
        raise MotsignError(f"not an expression node: {expr!r}")
    chain = type(expr)
    operands = []
    while type(expr) is chain:
        operands.append(expr.right)
        expr = expr.left
    operands = [expr, *reversed(operands)]
    if chain is MulExpr:
        # a generator leaf enters the product as its index
        factors = (
            pres.index(e.name) if type(e) is NameExpr and e.name != "eps" else eval_expr(e, conv, pres)
            for e in operands
        )
        return _product(factors, conv, pres)
    result = eval_expr(operands[0], conv, pres)
    for operand in operands[1:]:
        result = add_elements(result, eval_expr(operand, conv, pres), conv, pres)
    return result


# ---------- transport between conventions ----------


@dataclass(frozen=True)
class TransportReport:
    expression: str
    convention_from: str
    convention_to: str
    result_from: Element
    result_to: Element
    agree: bool
    discrepancy: Unit | None


def transport_check(
    expr: Expr | str,
    conv_from: Convention,
    conv_to: Convention,
    pres: Presentation,
) -> TransportReport:
    """Evaluate the expression under both conventions and report whether
    the normal forms agree; if not, the unit relating them when one exists."""
    if conv_from.mode != conv_to.mode:
        raise ModeMismatchError(
            f"conventions {conv_from.name!r} and {conv_to.name!r} use different coefficient modes"
        )
    text = expr if isinstance(expr, str) else "<expression>"
    result_from = eval_expr(expr, conv_from, pres)
    result_to = eval_expr(expr, conv_to, pres)
    agree = result_from == result_to
    discrepancy = None if agree else next(
        (unit for unit in UNITS if scalar_mul(unit.to_coef(), result_from, conv_to, pres) == result_to), None
    )
    return TransportReport(text, conv_from.name, conv_to.name, result_from, result_to, agree, discrepancy)


# ---------- presentation files ----------


def presentation_to_json(pres: Presentation) -> dict:
    return {
        "generators": [
            {"name": gen.name, "degree": [gen.degree.p, gen.degree.q]} for gen in pres.generators
        ],
        "relations": list(pres.relation_strings),
    }


def presentation_from_json(doc: dict) -> Presentation:
    try:
        generators = []
        for entry in doc["generators"]:
            name, degree = entry["name"], entry["degree"]
            if not isinstance(name, str):
                raise TypeError(f"generator name {name!r} is not a string")
            if not isinstance(degree, list) or len(degree) != 2 or any(type(x) is not int for x in degree):
                raise TypeError(f"degree {degree!r} of {name!r} is not a pair of integers")
            generators.append(Generator(name, Bidegree(*degree)))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed presentation document: {exc}") from None
    relations = doc.get("relations", [])
    if not isinstance(relations, list) or not all(isinstance(rel, str) for rel in relations):
        raise ParseError("malformed presentation document: relations must be an array of expression strings")
    return Presentation(generators, tuple(relations))
