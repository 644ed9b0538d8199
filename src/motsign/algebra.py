"""Presented Z x Z-graded algebras over Z[eps]/(eps^2 - 1).

Elements live on the sorted-word basis of the reference product; a
convention acts only through multiplication, so re-evaluating the same
expression under two conventions compares two products on one underlying
group.  Sorting a word into canonical generator order charges the reference
commutation unit of every inverted letter pair; that unit is an F2 bilinear
form in the degrees' parity classes, so a pair of words is charged through the
parity of each generator's count: XOR masks over the words, tabulated per
presentation at 16 unit calls, and one popcount per sign bit.  A convention's
twist enters once per factor pair; along a run of generators it joins that unit
in one pair of F2 columns per convention, at one cocycle call per run.

Coefficients of a monomial are reduced modulo its annihilator ideal, which
is generated by the mode's modulus and by each annihilator below together
with its eps multiple; its canonical basis is three integers:

* the commutation law itself forces (1 - kappa(d, d)) to annihilate any
  monomial containing a repeated generator of degree d (for example a
  generator of degree (1, 1) squares to an eps-invariant class);
* a single-term relation c * m = 0 with non-unit c contributes c to the
  annihilator of every monomial divisible by m.

Annihilator coefficients stay in the generic coefficient ring even when
elements are evaluated under a specialized mode, so an eps-torsion
relation never silently turns into integer torsion.  Relations with a
unit leading coefficient are instead applied as rewrite rules, replacing
the leading monomial by the negated tail until a fixed point.  That loop
runs on integer pairs, keeps its least-word-first order on a heap and shares
the basis cache; a Coef is built only for each surviving term.  Each pending
word carries its packed exponent vector and two sign masks: divisibility is one
guard-bit subtraction, a new word's data an addition and two XORs.  Its sorted
tuple stays the key, as no packed order is the tuple order in which the heap
pops and terms render.  Without rules, or with eps generic and rules that pass
Buchberger's first criterion (leads on pairwise disjoint generators of even p
and q, none of them in an annihilator word), a product chain is reduced and
rewritten once, at its end, and a run of generators in it is one word: one
parity-mask pass and one sort per term (`_product`).  A single term's rewrite is
memoized per presentation under its word, reduced pair and mode, never the
convention, to MAX_REWRITE_CACHE terms; its pass count keeps the limit exact.
An expression has one node per product and one per sum; a parenthesised
product stays one factor, so bracketing is kept where rules are not confluent.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from operator import xor
from typing import Iterable, Sequence

from .cocycles import BilinearCocycle
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
    _specialized,
    _unit,
    is_unit_coef,
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
    "MAX_GENERATORS",
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
MAX_REWRITE_CACHE = 2**16  # terms (one more per entry) in a presentation's rewrite memo; likewise
MAX_TWIST_CACHE = 16  # conventions' twist columns kept per presentation; likewise
MAX_NESTING = 100  # parentheses and unary minus, nested
MAX_EXPONENT = 1000  # largest n in a postfix power g^n
MAX_GENERATORS = 10_000  # per presentation; its sign tables hold O(n^2) bits

Monomial = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
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


def _ideal_basis(coefs: Iterable[Coef]) -> tuple[int, int, int]:
    """Canonical basis (a1, b1, a2) of the ideal of Z[eps]/(eps^2 - 1) the
    coefficients generate: the lattice in Z^2 spanned by each c and eps*c,
    echelonized against the eps coordinate into a1 + b1*eps with b1 > 0
    and a2 > 0 with 0 <= a1 < a2; a 0 in b1 or a2 marks that vector absent."""
    a1 = b1 = a2 = 0
    for c in coefs:
        for a, b in ((c.a, c.b), (c.b, c.a)):
            if not b:
                a2 = math.gcd(a2, a)
            elif not b1:
                a1, b1 = a, b
            else:
                g, x, y = _ext_gcd(b1, b)
                merged = x * a1 + y * a
                a2 = math.gcd(a2, a1 - b1 // g * merged, a - b // g * merged)
                a1, b1 = merged, g
    if b1 < 0:
        a1, b1 = -a1, -b1
    return (a1 % a2 if a2 else a1), b1, a2


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


def _pack(word: Monomial, pres: "Presentation") -> tuple[int, int, int]:
    """The word's packed exponent vector (field i counts generator i; see
    Presentation._fields) and its two sign masks (see _merge_words)."""
    return sum(map(pres._fields.__getitem__, word)), _xor_over(pres._s_above, word), _xor_over(pres._t_above, word)


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
    packed: tuple[int, int, int]  # the lead's packed vector and sign masks (see _pack)
    # per tail term (monomial, a, b, odd, packed): a + b*eps is neg_lead_inv
    # times its coefficient, odd the XOR of the lead's and its parity masks
    # (bit i: generator i occurs an odd number of times); see _apply_rule
    steps: tuple[tuple[Monomial, int, int, int, tuple[int, int, int]], ...]


class Presentation:
    """Immutable list of at most MAX_GENERATORS graded generators plus relations.

    Relations (expression strings or prebuilt elements) are classified on
    construction: a relation whose lex-leading monomial carries a unit
    coefficient becomes a rewrite rule, and a single-term relation with a
    non-unit coefficient becomes an annihilator entry.  Anything else is
    rejected; there is no completion procedure here.
    """

    def __init__(self, generators: Sequence[Generator], relations: Sequence["Element | str"] = ()):
        gens = tuple(generators)
        if len(gens) > MAX_GENERATORS:
            raise MotsignError(f"a presentation has at most {MAX_GENERATORS} generators, got {len(gens)}")
        seen: set[str] = set()
        for gen in gens:
            if not _NAME_RE.fullmatch(gen.name):
                raise MotsignError(f"bad generator name: {gen.name!r}")
            if gen.name in _RESERVED_NAMES:
                raise MotsignError(f"generator name {gen.name!r} is reserved")
            if gen.name in seen:
                raise MotsignError(f"duplicate generator name: {gen.name!r}")
            seen.add(gen.name)
        self.generators = gens
        self._index = {gen.name: i for i, gen in enumerate(gens)}
        self._degrees = degrees = tuple(gen.degree for gen in gens)
        self._p, self._q = tuple(d.p for d in degrees), tuple(d.q for d in degrees)
        # The reference commutation unit as an F2 bilinear form: bit i of
        # _s_above[j] (_t_above[j]) is the s (t) bit of B(d_i, d_j) for
        # i > j, and _bits[i] = 1 << i; see _merge_words.  The diagonal
        # gives the annihilator 1 - B(d, d) of a repeated generator.
        n = len(gens)
        self._bits = tuple(1 << i for i in range(n))
        self._s_above, self._t_above = (tuple(col >> j + 1 << j + 1 for j, col in enumerate(cols))
                                        for cols in self._columns(base_commutation))
        self._self_ann = tuple(Coef(1) - base_commutation(d, d).to_coef() for d in degrees)
        self._ann_entries: list[tuple[Monomial, Coef]] = []
        self._rules: list[_RewriteRule] = []
        self._basis_cache: dict[tuple[Monomial, int], tuple] = {}
        self._twist_cache: dict = {}  # _twist_columns; the relations' products below read it too
        self._rewrite_cache, self._rewrite_size = {}, 0  # _assemble's memo, and the terms it holds
        # relations are read as written, each on its own: no annihilator
        # reduction (the commutation law alone would turn (1-eps)*eta*eta
        # into zero) and no rewriting, since no rule exists until all are read
        self._raw = self._fold_raw = True
        relations = tuple(relations)
        elements = [eval_expr(rel, _REFERENCE, self) if isinstance(rel, str) else rel for rel in relations]
        self._raw = False
        rules = [rule for rule in map(self._classify_relation, elements) if rule is not None]
        leads = [set(lead) for lead, _, _ in rules]
        lead_gens = set().union(*leads)
        # a packed exponent vector has a 64-bit field per lead generator, the only letters
        # a lead's divisibility reads; a count is at most a tuple's length, at most
        # sys.maxsize < 2^63, so no field carries into its guard bit 63 (see _pack and _assemble)
        fields = {i: 1 << 64 * rank for rank, i in enumerate(sorted(lead_gens))}
        self._fields, self._guard = tuple(fields.get(i, 0) for i in range(n)), sum(fields.values()) << 63
        for lead, neg_lead_inv, tail in rules:
            lead_odd, scaled = _xor_over(self._bits, lead), [(m, neg_lead_inv * c) for m, c in tail]
            steps = tuple((m, c.a, c.b, lead_odd ^ _xor_over(self._bits, m), _pack(m, self)) for m, c in scaled)
            self._rules.append(_RewriteRule(lead, neg_lead_inv, tail, _pack(lead, self), steps))
        # Buchberger's first criterion: leads on pairwise disjoint generators
        # make the rules confluent, and with no lead generator in an
        # annihilator word nor one that self-annihilates (p and q even),
        # ann(lead * r) = ann(r) lies in ann(tail * r); then a chain may be
        # rewritten once, at its end, as it is without rules (_product)
        self._fold_raw = (
            sum(map(len, leads)) == len(lead_gens)
            and not any(lead_gens.intersection(word) for word, _ in self._ann_entries)
            and all(self._self_ann[i].is_zero() for i in lead_gens)
        )
        self.relations = tuple(elements)
        self.relation_strings = tuple(rel if isinstance(rel, str) else rel.render(self) for rel in relations)

    def _classify_relation(self, element: Element) -> tuple[Monomial, Coef, tuple] | None:
        """A rule's (lead, negated inverse lead coefficient, tail), or None for an annihilator, entered here."""
        # checked once here: rewriting keeps bidegrees only if every rule is homogeneous
        if not isinstance(element, Element):
            raise MotsignError(f"relation is neither a string nor an Element: {element!r}")
        n, seen = len(self.generators), set()
        for monomial, coef in element.terms:
            if not (isinstance(monomial, tuple) and all(type(i) is int and 0 <= i < n for i in monomial)
                    and list(monomial) == sorted(monomial)):
                raise MotsignError(f"relation word {monomial!r} is not a sorted tuple of generator indices")
            if not isinstance(coef, Coef):
                raise MotsignError(f"relation coefficient {coef!r} is not a Coef")
            if monomial in seen:
                raise MotsignError(f"relation repeats the word {_render_monomial(monomial, self) or '1'!r}")
            seen.add(monomial)
            d = self.monomial_degree(monomial)
            if d != element.degree:
                raise InhomogeneousError(f"relation term of bidegree {d} in an element of degree {element.degree}")
        if element.is_zero:
            raise MotsignError("relation reduces to zero")
        # ranked by exponent vector, which on sorted words is the order of the
        # negated letters; the words are distinct, so the last entry is
        # strictly greatest and rewriting strictly decreases
        ranked = sorted(element.terms, key=lambda item: tuple(-i for i in item[0]))
        lead, lead_coef = ranked[-1]
        if is_unit_coef(lead_coef):
            # a generic unit is one of 1, -1, eps, -eps: its own inverse
            return lead, -lead_coef, tuple(ranked[:-1])
        if len(ranked) > 1:
            raise MotsignError("unsupported relation: need a unit leading coefficient or a single annihilator term")
        self._ann_entries.append((lead, lead_coef))
        return None

    def _columns(self, form) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Columns (s_col, t_col) of an F2 bilinear unit form: bit i of s_col[g] is
        the s bit of form(d_i, d_g), likewise t.  A degree counts only by its
        parity class (p mod 2, q mod 2): one call per pair of class representatives,
        and a class's column ORs the member masks of the classes it pairs to a 1 bit."""
        classes = [(d.p & 1) << 1 | d.q & 1 for d in self._degrees]
        members = [sum(bit for bit, k in zip(self._bits, classes) if k == c) for c in range(4)]
        units = {(e, c): form(Bidegree(e >> 1, e & 1), Bidegree(c >> 1, c & 1)) for e in range(4) for c in range(4)}
        s_cls = [sum(members[e] for e in range(4) if units[e, c].s) for c in range(4)]
        t_cls = [sum(members[e] for e in range(4) if units[e, c].t) for c in range(4)]
        return tuple(s_cls[c] for c in classes), tuple(t_cls[c] for c in classes)

    def _twist_columns(self, twist: BilinearCocycle) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Columns (s_col, t_col) of a run's sign under the twist: bit i of
        s_col[g] is the s bit of B(d_i, d_g) for i > g (see _merge_words)
        XOR that of twist(d_i, d_g) for every i, as the twist is charged by
        position; likewise t.  So they are _s_above and _t_above XOR the twist's
        `_columns`, at 16 cocycle calls.  Cached per cocycle, the last MAX_TWIST_CACHE:
        an entry holds 2n ints of n bits, and there are 4^4 cocycles."""
        cols = self._twist_cache.get(twist)
        if cols is None:
            if len(self._twist_cache) >= MAX_TWIST_CACHE:
                del self._twist_cache[next(iter(self._twist_cache))]  # dicts keep insertion order
            s_col, t_col = self._columns(twist)
            cols = self._twist_cache[twist] = (tuple(map(xor, self._s_above, s_col)),
                                               tuple(map(xor, self._t_above, t_col)))
        return cols

    def _remember(self, key: tuple, memo: tuple[int, tuple]) -> None:
        """Store _assemble's (passes, terms) if they fit the bound, dropping the oldest entries first."""
        size, cache = len(memo[1]) + 1, self._rewrite_cache
        if size <= MAX_REWRITE_CACHE:
            while self._rewrite_size + size > MAX_REWRITE_CACHE:
                self._rewrite_size -= len(cache.pop(next(iter(cache)))[1]) + 1  # dicts keep insertion order
            cache[key], self._rewrite_size = memo, self._rewrite_size + size

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MotsignError(f"unknown generator: {name!r}") from None

    def monomial_degree(self, monomial: Monomial) -> Bidegree:
        return Bidegree(sum(map(self._p.__getitem__, monomial)), sum(map(self._q.__getitem__, monomial)))

    def eps_annihilated_generators(self) -> frozenset[str]:
        """Names g with a declared relation (1 - eps) * g = 0."""
        associates = {Coef(1, -1), Coef(-1, 1)}
        return frozenset(
            self.generators[m[0]].name for m, coef in self._ann_entries if len(m) == 1 and coef in associates
        )

    def reduce_coef(self, monomial: Monomial, coef: Coef, mode: CoefMode = GENERIC) -> Coef:
        """Canonical representative of the coefficient modulo the
        monomial's annihilator ideal (and the mode's modulus)."""
        return Coef(*self._reduce(monomial, coef.a, coef.b, mode))

    def _reduce(self, monomial: Monomial, a: int, b: int, mode: CoefMode) -> tuple[int, int]:
        """`reduce_coef` on the integer pair (a, b) of a + b*eps.

        The one place a coefficient meets the mode: `specialize` is a
        ring homomorphism, so callers pass unspecialized products."""
        a, b = _specialized(a, b, mode)
        if self._raw:
            return a, b
        key = (monomial, mode.modulus)
        basis = self._basis_cache.get(key)
        if basis is None:
            basis = _ideal_basis([
                *(c for div, c in self._ann_entries if _quotient(monomial, div) is not None),
                *(self._self_ann[i] for i, count in Counter(monomial).items() if count > 1),
                Coef(mode.modulus),
            ])
            if len(self._basis_cache) >= MAX_BASIS_CACHE:
                del self._basis_cache[next(iter(self._basis_cache))]  # dicts keep insertion order
            self._basis_cache[key] = basis
        a1, b1, a2 = basis
        if b1:
            k = b // b1
            a, b = a - k * a1, b - k * b1
        return (a % a2 if a2 else a), b


# ---------- element assembly ----------


def _assemble(
    raw: dict[Monomial, Coef], degree: Bidegree, conv: Convention, pres: Presentation, limit: int | None = None
) -> Element:
    """Reduce and rewrite raw terms of the caller's bidegree; rules are homogeneous.
    Coefficients run as pairs (a, b) for a + b*eps until the result is built.
    A fixed point must come within limit rewrites (default MAX_REWRITE_PASSES).  A single
    reduced term is memoized per presentation: `_rewrite` reads only the word, its pair and
    the mode, and a stored pass count over the limit raises where the loop would."""
    mode, reduce_pair = conv.mode, pres._reduce
    limit = MAX_REWRITE_PASSES if limit is None else limit
    terms: dict[Monomial, tuple[int, int]] = {}
    for monomial, coef in raw.items():
        pair = reduce_pair(monomial, coef.a, coef.b, mode)
        if pair != (0, 0):
            terms[monomial] = pair
    key = (*terms.items(), mode) if pres._rules and len(terms) == 1 else None
    memo = pres._rewrite_cache.get(key)
    if memo is None:
        passes = _rewrite(terms, mode, pres, limit)[0] if pres._rules else 0
        memo = passes, tuple([(monomial, Coef(a, b)) for monomial, (a, b) in sorted(terms.items())])
        if key is not None:
            pres._remember(key, memo)
    elif memo[0] > limit:
        raise RewriteLimitError(f"no fixed point after {limit} rewrite passes")
    return Element(memo[1], degree) if memo[1] else ZERO


def _rewrite(terms: dict[Monomial, tuple[int, int]], mode: CoefMode, pres: Presentation, limit: int) -> tuple:
    """The rule loop on reduced pairs, in place: (passes, terms).  Least rewritable monomial
    first, first matching rule; rules never change, so only a monomial a rewrite adds to
    needs another look.  pending: a heap (a sorted list is one) of words with their _pack,
    so it pops the least word; a lead divides one if word - lead borrows no guard bit."""
    passes, rules, guard, reduce_pair = 0, pres._rules, pres._guard, pres._reduce
    pending = sorted([(monomial, *_pack(monomial, pres)) for monomial in terms])
    while pending:
        monomial, vec, s, t = heappop(pending)
        if monomial not in terms:
            continue
        high = vec | guard
        for rule in rules:
            lead_vec, lead_s, lead_t = rule.packed
            if (high - lead_vec) & guard == guard:
                break
        else:
            continue
        passes += 1
        if passes > limit:
            raise RewriteLimitError(f"no fixed point after {limit} rewrite passes")
        a, b = terms.pop(monomial)
        rest = (_quotient(monomial, rule.lead), vec - lead_vec, s ^ lead_s, t ^ lead_t)
        for word, a, b in _apply_rule(rest, a, b, rule):
            new_monomial = word[0]
            old = terms.get(new_monomial)
            if old is not None:
                a, b = a + old[0], b + old[1]
            pair = reduce_pair(new_monomial, a, b, mode)
            if pair != (0, 0):
                terms[new_monomial] = pair
                heappush(pending, word)
            else:
                terms.pop(new_monomial, None)
    return passes, terms


def _apply_rule(
    rest: tuple[Monomial, int, int, int], a: int, b: int, rule: _RewriteRule
) -> list[tuple[tuple[Monomial, int, int, int], int, int]]:
    """The terms (word, a', b') replacing (a + b*eps) * (rule.lead * rest), rest and
    each word a monomial with its _pack: a word's vector is its tail's plus rest's,
    its masks the XOR of theirs.  Every merge here has rest on the right, so rest's
    masks (see _merge_words) give its sign.  A term's unit is the lead's merge unit
    (its own inverse) times the tail monomial's: units commute with coefficients,
    and popcount(x & u) + popcount(x & v) = popcount(x & (u ^ v)) mod 2."""
    rest, vec, s_rest, t_rest = rest
    out = []
    for monomial, c, d, odd, (tail_vec, s, t) in rule.steps:
        x, y = a * c + b * d, a * d + b * c
        if (t_rest & odd).bit_count() & 1:  # eps swaps the two parts
            x, y = y, x
        if (s_rest & odd).bit_count() & 1:
            x, y = -x, -y
        out.append(((tuple(sorted(monomial + rest)), vec + tail_vec, s ^ s_rest, t ^ t_rest), x, y))
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
    for that generator.  Where `Presentation._fold_raw` holds (no rules, or
    rules on coprime leads that keep off the annihilators) and, with rules,
    eps is generic, raw terms are folded, each run of generators as one word
    (`_times_word`), and assembled once at the end, with the rewrite passes
    of one assembly per factor: exact, since a word's annihilator ideal lies
    in that of each multiple of it, `specialize` is a ring homomorphism and
    the rules are confluent.  Otherwise each factor and partial product is
    assembled for rewriting, so the bracketing stays in the answer: a
    specialized eps leaves a generic annihilator such as 1 - eps unapplied,
    and with it the confluence of the rules."""
    deferred, count = pres._fold_raw and (not pres._rules or conv.mode.eps == "generic"), 0
    x, run = None, []
    for y in factors:
        if type(y) is int:  # a generator
            if deferred:
                run.append(y)
                continue
            y = _assemble({(y,): Coef(1)}, pres._degrees[y], conv, pres)
        count += 1 + len(run)  # the factors so far
        if run:
            x, run = _times_word(x, run, conv, pres), []
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
    if run:
        x = _times_word(x, run, conv, pres)
    if deferred and x.terms:
        return _assemble(dict(x.terms), x.degree, conv, pres, MAX_REWRITE_PASSES * (count + len(run)))
    return x


def _times_word(x: Element | None, run: list[int], conv: Convention, pres: Presentation) -> Element:
    """Raw terms of x (None: the empty word) times the run's generators in
    order.  The twist is bilinear: the left factor's is one call against the
    run's degree, and each letter's against the letters before it is, with
    the reference unit of the run's own inverted pairs, a popcount of its
    twist columns against a running parity mask.  The pairs across are
    charged per term, by the run's XOR masks as in `_merge_words`.  Distinct
    m1 give distinct words: no two terms meet."""
    if x is not None and x.is_zero:
        return ZERO
    terms, degree = (x.terms, x.degree) if x is not None else ((((), Coef(1)),), Bidegree(0, 0))
    (s_col, t_col), run_degree = pres._twist_columns(conv.twist), pres.monomial_degree(run)
    twist, odd = conv.twist(degree, run_degree), 0
    s, t = twist.s, twist.t
    for g in run:
        s += (s_col[g] & odd).bit_count()
        t += (t_col[g] & odd).bit_count()
        odd ^= pres._bits[g]
    s_run, t_run, word = _xor_over(pres._s_above, run), _xor_over(pres._t_above, run), tuple(sorted(run))
    raw = []
    for m1, c1 in terms:
        odd = _xor_over(pres._bits, m1)
        coef = _signed(c1, s + (s_run & odd).bit_count(), t + (t_run & odd).bit_count())
        raw.append((tuple(sorted(m1 + word)), coef))
    return Element(tuple(raw), degree + run_degree)


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
    factors: tuple[Expr, ...]


@dataclass(frozen=True)
class AddExpr(Expr):
    terms: tuple[Expr, ...]  # a difference is a NegExpr term


# an operator token is known by its text alone; bad is any stray character, non-ASCII ones too;
# end takes trailing whitespace whole, which a failed match would rescan from each character
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<int>\d+)|(?P<run>{_NAME}(?:\s*\*\s*{_NAME})+)(?![A-Za-z0-9_]|\s*\^)|(?P<name>{_NAME})"
    r"|(?P<op>[+\-*()^])|(?P<bad>\S)|(?P<end>\Z))", re.ASCII
)


class _Names(dict):  # one node per distinct name, made on first lookup
    def __missing__(self, name: str) -> NameExpr:
        node = self[name] = NameExpr(name)
        return node


def _int_literal(digits: str, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's integer-string digit limit
        raise ParseError(f"integer literal of {len(digits)} digits is too long", column=col) from None


def parse_expression(text: str) -> Expr:
    """Parse an expression over generator names, eps, integers, *, +, -,
    parentheses, and postfix powers g^n of a name or integer.

    A run of names joined by `*`, none raised to a power, is one token whose
    names join the product around it, and a unary minus binds its first name
    only; equal names share one node.  A `ParseError` column is the 1-based
    position of the offending token (of a run, its first name); a missing
    token is placed one past the end of the text."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match[kind]!r}", column=match.start(kind) + 1)
        tokens.append((kind, match[kind], match.start(kind) + 1))
    pos, depth, names = 0, 0, _Names()

    def expr() -> Expr:
        nonlocal pos
        terms = [term()]
        while (op := tokens[pos][1]) in ("+", "-"):
            pos += 1
            terms.append(term() if op == "+" else NegExpr(term()))
        return AddExpr(tuple(terms)) if len(terms) > 1 else terms[0]

    def term() -> Expr:
        nonlocal pos
        factor(factors := [])
        while tokens[pos][1] == "*":
            pos += 1
            factor(factors)
        return MulExpr(tuple(factors)) if len(factors) > 1 else factors[0]

    def factor(out: list[Expr]) -> None:  # appends its node, or a run's nodes
        nonlocal pos, depth
        kind, value, col = tokens[pos]
        pos += 1
        if kind == "run":
            return out.extend(map(names.__getitem__, "".join(value.split()).split("*")))
        if value in ("-", "("):
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses and unary minus nest deeper than {MAX_NESTING}", column=col)
            if value == "-":  # binds only the first node its operand yields
                factor(nodes := [])
                out += NegExpr(nodes[0]), *nodes[1:]
            else:
                out.append(expr())
                if tokens[pos][1] != ")":
                    raise ParseError("expected ')'", column=tokens[pos][2])
                pos += 1
            depth -= 1
            return
        if kind == "int":
            node = IntExpr(_int_literal(value, col))
        elif kind == "name":
            node = names[value]
        else:
            raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", column=col)
        if tokens[pos][1] == "^":
            kind, value, col = tokens[pos + 1]
            pos += 2
            n = _int_literal(value, col) if kind == "int" else 0
            if not 1 <= n <= MAX_EXPONENT:
                raise ParseError(f"exponent must be an integer from 1 to {MAX_EXPONENT}", column=col)
            node = MulExpr((node,) * n) if n > 1 else node
        out.append(node)

    try:
        node = expr()
        kind, value, col = tokens[pos]
        if kind != "end":
            raise ParseError(f"unexpected token {value.split('*')[0].rstrip()!r}", column=col)  # a run: its first name
        return node
    finally:
        # the three hold one another in closure cells: free them now, not by the cycle collector
        del expr, term, factor


def eval_expr(expr: Expr | str, conv: Convention, pres: Presentation) -> Element:
    """Evaluate an expression tree (or string) to a canonical element.

    Each node goes to the operation it names: a product's factors to one
    `_product` fold, a sum's terms to a left fold of `add_elements`, so
    flat chains of any length need no recursion.
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
    if isinstance(expr, MulExpr) and expr.factors:
        # a generator leaf enters the product as its index; eps and unknown names take the leaf path
        index = pres._index
        factors = (index[e.name] if type(e) is NameExpr and e.name in index else eval_expr(e, conv, pres)
                   for e in expr.factors)
        return _product(factors, conv, pres)
    if not (isinstance(expr, AddExpr) and expr.terms):
        raise MotsignError(f"not an expression node: {expr!r}")
    result = eval_expr(expr.terms[0], conv, pres)
    for term in expr.terms[1:]:
        result = add_elements(result, eval_expr(term, conv, pres), conv, pres)
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
    expr = parse_expression(expr) if isinstance(expr, str) else expr
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
