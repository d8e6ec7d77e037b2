"""Modular symbols over Q/Z.

A symbol is a canonical generator: a sorted tuple of Q/Z elements that
generate a nontrivial cyclic subgroup.  The modules studied here are
spanned by symbols of a fixed arity modulo two relation families, the
blow-up relation (arity preserving, one distinguished entry spread over
the others) and, for the signed quotient, entrywise negation with a sign.
Relation matrices are produced over the deterministic symbol enumeration
so their ranks and Smith forms describe the quotient modules exactly.
"""

import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

from .linalg import SparseMat, rank_q, snf

TWO_TORSION = 0  # sign value returned for classes with 2*S = 0 in the signed quotient


class Symbol(tuple):
    """A canonical symbol: entries in Q/Z, sorted ascending."""

    __slots__ = ()

    @property
    def arity(self):
        return len(self)

    @property
    def modulus(self):
        """lcm of the entry orders; the subgroup the entries generate is Z/modulus."""
        return lcm(*[a.order for a in self]) if self else 1

    @property
    def is_acceptable(self):
        """True unless every entry is zero."""
        return self.modulus >= 2

    def in_module(self, N):
        """Does the symbol lie in the arity-len module at modulus exactly N?"""
        return all(N % a.order == 0 for a in self) and self.modulus == N

    def to_json(self):
        return [str(a) for a in self]

    def __repr__(self):
        return "<%s>" % ", ".join(str(a) for a in self)


def canonicalize(entries):
    """Sort entries into the canonical representative of the symbol."""
    from .qz import QZ
    t = tuple(sorted(QZ(a) for a in entries))
    if not t:
        raise ValueError("a symbol needs at least one entry")
    return Symbol(t)


_P_OVER_Q = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def _wire_rational(value):
    """An int (not a bool) or a "p/q" string as a Fraction.

    Floats are refused: a JSON float is a binary approximation, not the
    exact rational it prints as.  Strings are held to p/q, so no decimal
    exponent can ask for an arbitrarily large power of ten.
    """
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, str) and _P_OVER_Q.fullmatch(value)):
        raise ValueError("expected an integer or a \"p/q\" string, got %r"
                         % (value,))
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % value) from None


def symbol_from_json(data):
    return canonicalize(_wire_rational(s) for s in data)


def symbol_from_lattice(coeffs):
    """Symbol attached to a character datum; rejects the trivial one."""
    s = canonicalize(coeffs)
    if not s.is_acceptable:
        raise ValueError("all coefficients vanish, no symbol attached")
    return s


def enumerate_symbols(n, N):
    """All canonical arity-n symbols of modulus exactly N, in a fixed order.

    Entries run over the N-torsion of Q/Z and the lcm of the entry orders
    must be N itself (the tuple generates Z/N).  Deterministic: sorted
    tuples in lexicographic order.
    """
    from .qz import torsion
    if n < 1:
        raise ValueError("arity must be at least 1")
    if N < 2:
        raise ValueError("modulus must be at least 2")
    out = []
    for t in combinations_with_replacement(torsion(N), n):
        s = Symbol(t)
        if s.modulus == N:
            out.append(s)
    return out


class FormalSum:
    """A finite linear combination of symbols of one arity.

    Coefficients are exact rationals internally; the ``rational`` flag
    records whether the sum lives over Q (required by the averaged lift
    operator) or over Z (every coefficient integral).
    """

    __slots__ = ("terms", "arity", "rational")

    def __init__(self, terms=None, arity=0, rational=False):
        clean = {}
        for s, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            if not isinstance(s, Symbol):
                s = canonicalize(s)
            if arity and len(s) != arity:
                raise ValueError("mixed arities in formal sum")
            arity = len(s)
            if not rational and c.denominator != 1:
                raise ValueError("non-integral coefficient in integer mode")
            clean[s] = c
        self.terms = clean
        self.arity = arity
        self.rational = rational

    @classmethod
    def zero(cls, arity=0, rational=False):
        return cls({}, arity, rational)

    @classmethod
    def of(cls, symbol, coeff=1, rational=False):
        symbol = symbol if isinstance(symbol, Symbol) else canonicalize(symbol)
        return cls({symbol: coeff}, len(symbol), rational)

    def items(self):
        """Terms sorted by symbol, for deterministic output."""
        return sorted(self.terms.items())

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _merge(self, other, flip):
        if self.terms and other.terms and self.arity != other.arity:
            raise ValueError("arity mismatch")
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + (-c if flip else c)
        return FormalSum(out, self.arity or other.arity,
                         self.rational or other.rational)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return FormalSum({s: -c for s, c in self.terms.items()},
                         self.arity, self.rational)

    def scale(self, c):
        c = Fraction(c)
        rational = self.rational or c.denominator != 1
        return FormalSum({s: v * c for s, v in self.terms.items()},
                         self.arity, rational)

    def __rmul__(self, c):
        return self.scale(c)

    def to_rational(self):
        return FormalSum(self.terms, self.arity, True)

    def extend_linear(self, f):
        """Apply a symbol-level map f(symbol) -> FormalSum linearly."""
        out = FormalSum.zero(rational=self.rational)
        for s, c in self.terms.items():
            out = out + f(s).scale(c)
        return out

    def to_json(self):
        out = []
        for s, c in self.items():
            coeff = str(c) if self.rational else int(c)
            out.append({"c": coeff, "s": s.to_json()})
        return out

    def __repr__(self):
        if not self.terms:
            return "FormalSum(0)"
        return " + ".join("%s*%r" % (c, s) for s, c in self.items())


def sum_from_json(data, rational=None):
    """Parse the wire format [{"c": int-or-"p/q", "s": [entries]}, ...]."""
    terms = {}
    saw_string = False
    for item in data:
        c = item["c"]
        saw_string = saw_string or isinstance(c, str)
        c = _wire_rational(c)
        s = symbol_from_json(item["s"])
        terms[s] = terms.get(s, 0) + c
    if rational is None:
        rational = saw_string
    return FormalSum(terms, rational=rational)


def blowup_relation(entries, k, positions=None, modulus=None):
    """The blow-up relation instance for one tuple and one choice of part.

    The distinguished part is the k entries at ``positions``; the result is
    canon(tuple) minus the sum over i in the part of the tuple with entry i
    kept and every other part entry replaced by its difference with entry i.
    Raises unless the full tuple generates its ambient cyclic group (at the
    declared modulus when one is given, else the lcm of the entry orders).
    """
    from .qz import QZ
    t = tuple(QZ(a) for a in entries)
    n = len(t)
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= arity")
    if positions is None:
        positions = tuple(range(k))
    positions = tuple(sorted(positions))
    if len(positions) != k or len(set(positions)) != k \
            or not all(0 <= p < n for p in positions):
        raise ValueError("positions must be k distinct indices")
    m = lcm(*[a.order for a in t])
    if modulus is not None:
        if any(modulus % a.order for a in t) or m != modulus:
            raise ValueError("tuple does not generate Z/%d" % modulus)
    elif m < 2:
        raise ValueError("the zero tuple generates nothing")
    out = FormalSum.of(canonicalize(t))
    for i in positions:
        new = list(t)
        for j in positions:
            if j != i:
                new[j] = t[j] - t[i]
        term = canonicalize(new)
        # each spread tuple still generates the same cyclic group
        assert term.modulus == m
        out = out - FormalSum.of(term)
    return out


def _minus_rows(symbols):
    rows = []
    for s in symbols:
        for p in range(len(s)):
            flipped = list(s)
            flipped[p] = -flipped[p]
            rows.append(FormalSum.of(canonicalize(flipped)) + FormalSum.of(s))
    return rows


def relation_rows(n, N, minus=False):
    """Deduplicated nonzero relation vectors for the arity-n modulus-N module."""
    rows = []
    for s in enumerate_symbols(n, N):
        for k in range(2, n + 1):
            for pos in combinations(range(n), k):
                rows.append(blowup_relation(s, k, pos, modulus=N))
    if minus:
        rows.extend(_minus_rows(enumerate_symbols(n, N)))
    seen = {}
    for r in rows:
        if r.is_zero():
            continue
        key = tuple(r.items())
        if key not in seen:
            seen[key] = r
    return list(seen.values())


class RelationMatrix:
    """Symbol basis plus relation rows, with rank and span queries."""

    def __init__(self, n, N, minus=False):
        self.n, self.N, self.minus = n, N, minus
        self.basis = enumerate_symbols(n, N)
        self.index = {s: i for i, s in enumerate(self.basis)}
        self.rows = relation_rows(n, N, minus)
        self.mat = SparseMat(
            [{self.index[s]: c for s, c in r.terms.items()} for r in self.rows],
            len(self.basis))

    def vectorize(self, fs):
        """Coordinates of a formal sum over the basis; None if it leaves it."""
        vec = {}
        for s, c in fs.terms.items():
            if s not in self.index:
                return None
            vec[self.index[s]] = c
        return vec

    def contains(self, fs):
        vec = self.vectorize(fs)
        return vec is not None and self.mat.echelon().contains(vec)

    def quotient_rank(self):
        """Dimension over Q of the presented module."""
        return len(self.basis) - rank_q(self.mat)

    def invariant_factors(self):
        return snf(self.mat)


def relation_matrix(n, N, minus=False):
    return RelationMatrix(n, N, minus)


def minus_canonicalize(symbol):
    """Least representative of the signed class of a symbol.

    Scans all entrywise negation patterns; returns (least tuple, sign) where
    sign is +1 or -1 by flip parity, or TWO_TORSION when the least tuple is
    reachable with both parities (then twice the class vanishes in the
    signed quotient, and the class dies over Q).
    """
    symbol = symbol if isinstance(symbol, Symbol) else canonicalize(symbol)
    n = len(symbol)
    best = None
    parities = set()
    for mask in range(1 << n):
        cand = canonicalize(
            -a if mask >> i & 1 else a for i, a in enumerate(symbol))
        par = bin(mask).count("1") & 1
        if best is None or cand < best:
            best, parities = cand, {par}
        elif cand == best:
            parities.add(par)
    if len(parities) == 2:
        return best, TWO_TORSION
    return best, (1 if 0 in parities else -1)


def minus_reduce(fs):
    """Rewrite a sum over least signed representatives, over Q semantics.

    Two-torsion classes collapse to zero; use only where rational
    coefficients are in play.
    """
    out = {}
    for s, c in fs.terms.items():
        rep, sign = minus_canonicalize(s)
        if sign == TWO_TORSION:
            continue
        out[rep] = out.get(rep, 0) + sign * c
    return FormalSum(out, fs.arity, fs.rational)
