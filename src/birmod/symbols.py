"""Modular symbols over Q/Z.

A symbol is a canonical generator: a sorted tuple of Q/Z elements that
generate a nontrivial cyclic subgroup.  The modules studied here are
spanned by symbols of a fixed arity modulo two relation families, the
blow-up relation (arity preserving, one distinguished entry spread over
the others) and, for the signed quotient, entrywise negation with a sign.
Relation matrices are produced over the deterministic symbol enumeration
so their ranks and Smith forms describe the quotient modules exactly.

Internally a symbol is coded at a level L, a positive integer that every
entry denominator divides: the entry a/d becomes the int a*L/d in
[0, L).  The code is monotone, so a sorted symbol codes to a sorted int
tuple and decodes without re-sorting; the coded tuple t has modulus
L // gcd(L, *t).  Enumeration, relation rows, the signed form and ``ops``
work on codes.  A relation matrix holds only the coded basis and its
sparse rows; ``basis`` and ``rows`` decode on request.  The operators in
``ops`` keep each entry at its position, so their coded tuples come in any
order; ``_sym`` sorts them and adds equal ones once, where a result is
decoded and handed out.
"""

import re
from collections import defaultdict
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from math import gcd, lcm

from .linalg import SparseMat, rank_q, snf
from .lincomb import LinComb
from .qz import QZ

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
    """A symbol from its wire form, a JSON array of entries."""
    if not isinstance(data, list):
        raise ValueError("expected an array of entries, got %r" % (data,))
    return canonicalize(_wire_rational(s) for s in data)


def symbol_from_lattice(coeffs):
    """Symbol attached to a character datum; rejects the trivial one."""
    s = canonicalize(coeffs)
    if not s.is_acceptable:
        raise ValueError("all coefficients vanish, no symbol attached")
    return s


def _coded_symbols(n, N):
    """The arity-n symbols of modulus exactly N, coded at level N."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    if N < 2:
        raise ValueError("modulus must be at least 2")
    return [t for t in combinations_with_replacement(range(N), n)
            if gcd(N, *t) == 1]


def enumerate_symbols(n, N):
    """All canonical arity-n symbols of modulus exactly N, in a fixed order.

    Entries run over the N-torsion of Q/Z and the lcm of the entry orders
    must be N itself (the tuple generates Z/N).  Deterministic: sorted
    tuples in lexicographic order.
    """
    return [_dec(t, N) for t in _coded_symbols(n, N)]


class FormalSum(LinComb):
    """A finite linear combination of symbols of one arity.

    Coefficients are exact rationals internally; the ``rational`` flag
    records whether the sum lives over Q (required by the averaged lift
    operator) or over Z (every coefficient integral).  Keys naming the
    same symbol (in any entry order) add up.
    """

    __slots__ = ("arity", "rational")

    def __init__(self, terms=None, arity=0, rational=False):
        self.arity = arity  # both read by _pairs, which also sets arity
        self.rational = rational
        super().__init__(terms)

    def _pairs(self, pairs):
        for s, c in pairs:
            c = Fraction(c)
            if not c:
                continue
            if not isinstance(s, Symbol):
                s = canonicalize(s)
            if self.arity and len(s) != self.arity:
                raise ValueError("mixed arities in formal sum")
            self.arity = len(s)
            if not self.rational and c.denominator != 1:
                raise ValueError("non-integral coefficient in integer mode")
            yield s, c

    def _like(self, pairs):
        return FormalSum(pairs, self.arity, self.rational)

    @classmethod
    def of(cls, symbol, coeff=1, rational=False):
        symbol = symbol if isinstance(symbol, Symbol) else canonicalize(symbol)
        return cls({symbol: coeff}, len(symbol), rational)

    def items(self):
        """Terms sorted by symbol, through the monotone code at one level."""
        L = _level(self)
        return sorted(self.terms.items(), key=lambda sc: _enc(sc[0], L))

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return FormalSum(chain(self.terms.items(), other.terms.items()),
                         self.arity or other.arity,
                         self.rational or other.rational)

    def scale(self, c):
        c = Fraction(c)
        rational = self.rational or c.denominator != 1
        return FormalSum({s: v * c for s, v in self.terms.items()},
                         self.arity, rational)

    def to_rational(self):
        return FormalSum(self.terms, self.arity, True)

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


def sum_from_json(data):
    """Parse the wire format [{"c": int-or-"p/q", "s": [entries]}, ...].

    Terms naming the same symbol add up.  A string coefficient anywhere
    makes the sum rational.
    """
    terms = [(_wire_rational(item["c"]), symbol_from_json(item["s"]),
              isinstance(item["c"], str)) for item in data]
    rational = any(saw_string for _, _, saw_string in terms)
    return FormalSum(((s, c) for c, s, _ in terms), rational=rational)


# level codec: dicts {coded entry tuple: coefficient}

def _level(*sums):
    """lcm of the symbol moduli, the least level holding every entry."""
    return lcm(*[s.modulus for x in sums for s in x.terms])


def _enc(s, L):
    return tuple(a.numerator * (L // a.denominator) for a in s)


def _dec(t, L):
    return Symbol(QZ(i, L) for i in t)


def _raw_of(fs, L):
    return {_enc(s, L): c for s, c in fs.terms.items()}


def _sym(sums):
    """Sort each coded tuple, add equal ones and drop zeros."""
    out = defaultdict(int)
    for t, c in sums.items():
        out[tuple(sorted(t))] += c
    return {t: c for t, c in out.items() if c}


def _wrap(sums, L, arity, rational):
    """Decode to a formal sum, dropping the all-zero tuple.

    The coded tuples may come in any entry order: they are sorted once
    here, before decoding, so each symbol is decoded once.
    """
    return FormalSum(((_dec(t, L), c) for t, c in _sym(sums).items()
                      if any(t)), arity, rational)


def _blowup_row(t, L, positions):
    """``blowup_relation`` on the coded tuple t, as given (not sorted)."""
    m = gcd(L, *t)
    row = {tuple(sorted(t)): 1}
    for i in positions:
        key = tuple(sorted((x - t[i]) % L if j in positions and j != i
                           else x for j, x in enumerate(t)))
        # each spread tuple still generates the same cyclic group
        assert gcd(L, *key) == m
        row[key] = row.get(key, 0) - 1
    return {key: c for key, c in row.items() if c}


def blowup_relation(entries, k, positions=None, modulus=None):
    """The blow-up relation instance for one tuple and one choice of part.

    The distinguished part is the k entries at ``positions``; the result is
    canon(tuple) minus the sum over i in the part of the tuple with entry i
    kept and every other part entry replaced by its difference with entry i.
    Raises unless the full tuple generates its ambient cyclic group (at the
    declared modulus when one is given, else the lcm of the entry orders).
    """
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
    return _wrap(_blowup_row(_enc(t, m), m, positions), m, n, False)


def _relations(n, N, minus):
    """Coded basis and relation rows at level N.

    Blow-up rows, then negation rows if minus; each row is kept at its
    first occurrence.  No row is zero: its coefficients sum to 1 - k or 2.
    """
    basis = _coded_symbols(n, N)
    rows = [_blowup_row(t, N, pos) for t in basis for k in range(2, n + 1)
            for pos in combinations(range(n), k)]
    if minus:
        for t in basis:
            for p in range(n):
                key = tuple(sorted(t[:p] + (-t[p] % N,) + t[p + 1:]))
                rows.append({key: 2} if key == t else {key: 1, t: 1})
    seen = {}
    for r in rows:
        seen.setdefault(tuple(sorted(r.items())), r)
    return basis, list(seen.values())


def relation_rows(n, N, minus=False):
    """Deduplicated nonzero relation vectors for the arity-n modulus-N module."""
    return [_wrap(r, N, n, False) for r in _relations(n, N, minus)[1]]


class RelationMatrix:
    """Coded symbol basis plus relation rows, with rank and span queries."""

    def __init__(self, n, N, minus=False):
        self.n, self.N, self.minus = n, N, minus
        # the basis coded at level N, and the column of each code
        self.codes, rows = _relations(n, N, minus)
        self.index = {t: i for i, t in enumerate(self.codes)}
        self.mat = SparseMat(
            [{self.index[t]: c for t, c in r.items()} for r in rows],
            len(self.codes))

    @property
    def basis(self):
        """The basis symbols, in column order."""
        return [_dec(t, self.N) for t in self.codes]

    @property
    def rows(self):
        """The relation rows as formal sums, in matrix row order."""
        basis = self.basis
        return [FormalSum({basis[i]: c for i, c in r.items()}, self.n)
                for r in self.mat.rows]

    def vectorize(self, fs):
        """Coordinates of a formal sum over the basis; None if it leaves it."""
        vec = {}
        for s, c in fs.terms.items():
            t = _enc(s, self.N) if s.modulus == self.N else None
            if t not in self.index:
                return None
            vec[self.index[t]] = c
        return vec

    def contains(self, fs):
        vec = self.vectorize(fs)
        return vec is not None and self.mat.echelon().contains(vec)

    def quotient_rank(self):
        """Dimension over Q of the presented module."""
        return len(self.codes) - rank_q(self.mat)

    def invariant_factors(self):
        return snf(self.mat)


def relation_matrix(n, N, minus=False):
    return RelationMatrix(n, N, minus)


def _minus_rep(t, L):
    """``minus_canonicalize`` on a coded tuple t, entries in [0, L).

    The least tuple takes min(i, -i mod L) in each entry.  No other flips
    reach it, save those of entries that are their own negative.
    """
    rep = tuple(sorted(min(i, -i % L) for i in t))
    if any(i == -i % L for i in t):
        return rep, TWO_TORSION
    return rep, (-1) ** sum(i > -i % L for i in t)


def minus_canonicalize(symbol):
    """Least representative of the signed class of a symbol.

    Over all entrywise negation patterns, returns (least tuple, sign) where
    sign is +1 or -1 by flip parity, or TWO_TORSION when the least tuple is
    reachable with both parities (then twice the class vanishes in the
    signed quotient, and the class dies over Q).
    """
    symbol = symbol if isinstance(symbol, Symbol) else canonicalize(symbol)
    L = symbol.modulus
    rep, sign = _minus_rep(_enc(symbol, L), L)
    return _dec(rep, L), sign


def minus_reduce(fs):
    """Rewrite a sum over least signed representatives, over Q semantics.

    Two-torsion classes collapse to zero; use only where rational
    coefficients are in play.
    """
    signed = ((minus_canonicalize(s), c) for s, c in fs.terms.items())
    return FormalSum(((rep, sign * c) for (rep, sign), c in signed
                      if sign != TWO_TORSION), fs.arity, fs.rational)
