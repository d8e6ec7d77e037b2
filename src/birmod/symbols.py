"""Modular symbols over Q/Z.

A symbol is a canonical generator: a sorted tuple of Q/Z elements that
generate a nontrivial cyclic subgroup.  The modules studied here are
spanned by symbols of a fixed arity modulo two relation families, the
blow-up relation (arity preserving, one distinguished entry spread over
the others) and, for the signed quotient, entrywise negation with a sign.
Relation matrices are produced over the deterministic symbol enumeration
so their ranks and Smith forms describe the quotient modules exactly.

A symbol is coded at a level L, a positive integer that every entry
denominator divides: the entry a/d becomes the int a*L/d in [0, L).  The
code is monotone, so a sorted symbol codes to a sorted int tuple; the
coded tuple t has modulus L // gcd(L, *t).  A symbol is held as its
canonical code (M, t), its sorted entries coded at its modulus M: the
key of a ``FormalSum`` term and, at M = N, of a relation matrix column.
The operators in ``ops`` act at one level and keep each entry at its
position; ``_by_modulus`` sorts their tuples into canonical codes, and
the law cells walk ``_coded_symbols``.  ``Symbol`` and ``QZ`` values are
built only from parsed input and for the public view (``items``,
``basis``, ``enumerate_symbols``, ``minus_canonicalize``, coproduct
legs); ``to_json``, ``repr`` and ``_entry`` print entries from codes.
"""

import re
from fractions import Fraction
from functools import cached_property
from itertools import (chain, combinations, combinations_with_replacement,
                       count)
from math import gcd, lcm

from .linalg import Echelon, SparseMat, snf
from .lincomb import LinComb, _collect
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
        return self.modulus == N

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


def _coefficient(c):
    """A coefficient as a Fraction; floats and bools are refused, as in QZ."""
    if isinstance(c, (float, bool)):
        raise TypeError("formal sum coefficients must be exact rationals, "
                        "got %r" % (c,))
    return Fraction(c)


class FormalSum(LinComb):
    """A finite linear combination of symbols of one arity.

    Terms are keyed by canonical code (M, t), and ``items`` hands out the
    symbols.  Coefficients are exact rationals; the ``rational`` flag
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
            c = _coefficient(c)
            if not c:
                continue
            if not isinstance(s, Symbol):
                s = canonicalize(s)
            if self.arity and len(s) != self.arity:
                raise ValueError("mixed arities in formal sum")
            self.arity = len(s)
            if not self.rational and c.denominator != 1:
                raise ValueError("non-integral coefficient in integer mode")
            M = s.modulus
            yield (M, _enc(s, M)), c

    def _like(self, pairs):
        return _coded(pairs, self.arity, self.rational)

    @classmethod
    def of(cls, symbol, coeff=1, rational=False):
        symbol = symbol if isinstance(symbol, Symbol) else canonicalize(symbol)
        return cls({symbol: coeff}, len(symbol), rational)

    def items(self):
        """(symbol, coefficient) pairs, sorted by symbol."""
        return [(_dec(t, M), c) for (M, t), c in _ordered(self)]

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        arity = self.arity or other.arity
        if other.terms and other.arity != arity:
            raise ValueError("mixed arities in formal sum")
        return _coded(chain(self.terms.items(), other.terms.items()), arity,
                      self.rational or other.rational)

    def scale(self, c):
        c = _coefficient(c)
        return _coded(((key, v * c) for key, v in self.terms.items()),
                      self.arity, self.rational or c.denominator != 1)

    def to_rational(self):
        return _coded(self.terms.items(), self.arity, True)

    def to_json(self):
        return [{"c": str(c) if self.rational else int(c),
                 "s": [_entry(i, M) for i in t]}
                for (M, t), c in _ordered(self)]

    def __repr__(self):
        if not self.terms:
            return "FormalSum(0)"
        return " + ".join("%s*<%s>" % (c, ", ".join(_entry(i, M) for i in t))
                          for (M, t), c in _ordered(self))


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

def _coded(pairs, arity, rational):
    """A formal sum of (canonical code, coefficient) pairs."""
    fs = FormalSum(None, arity, rational)
    fs.terms = _collect(pairs)
    return fs


def _ordered(fs):
    """The terms of fs sorted by symbol: by their codes at one level."""
    L = _level(fs)
    return sorted(fs.terms.items(),
                  key=lambda kc: [i * (L // kc[0][0]) for i in kc[0][1]])


def _level(*sums):
    """lcm of the symbol moduli, the least level holding every entry."""
    return lcm(*[M for x in sums for M, _ in x.terms])


def _enc(s, L):
    return tuple(a.numerator * (L // a.denominator) for a in s)


def _dec(t, L):
    return Symbol(QZ(i, L) for i in t)


def _entry(i, L):
    """``str(QZ(i, L))``, written without building the QZ."""
    g = gcd(i, L)
    return "%d/%d" % (i // g, L // g) if i else "0"


def _raw_of(fs, L):
    return {tuple([i * (L // M) for i in t]): c
            for (M, t), c in fs.terms.items()}


def _sym(sums):
    """Sort each coded tuple, add equal ones and drop zeros."""
    return _collect((tuple(sorted(t)), c) for t, c in sums.items())


def _by_modulus(sums, L):
    """(canonical code, coefficient) of each tuple coded at level L, in
    any entry order; the all-zero tuple, which has no modulus, is dropped.
    """
    for t, c in sums.items():
        g = gcd(L, *t)
        if g < L:
            yield (L // g, tuple(sorted([x // g for x in t]))), c


def _wrap(sums, L, arity, rational):
    """A formal sum of tuples coded at level L."""
    return _coded(_by_modulus(sums, L), arity, rational)


def _blowup_row(t, L, positions, col, first):
    """``blowup_relation`` on the coded tuple t, as given (not sorted),
    with each sorted tuple written as ``col(tuple)``: its basis column, or
    the tuple itself when col is ``tuple``.  ``first`` is t sorted and so
    written, which a caller walking the sorted codes already holds."""
    m = gcd(L, *t)
    row = {first: 1}
    for i in positions:
        x = t[i]
        spread = list(t)
        for j in positions:
            spread[j] = (t[j] - x) % L
        spread[i] = x
        spread.sort()
        key = tuple(spread)
        # each spread tuple still generates the same cyclic group
        assert gcd(L, *key) == m
        key = col(key)
        row[key] = row.get(key, 0) - 1
    return row if all(row.values()) else {k: c for k, c in row.items() if c}


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
        if m != modulus:
            raise ValueError("tuple does not generate Z/%d" % modulus)
    elif m < 2:
        raise ValueError("the zero tuple generates nothing")
    t = _enc(t, m)
    return _wrap(_blowup_row(t, m, positions, tuple, tuple(sorted(t))), m, n,
                 False)


def _blowup_rows(n, N, codes, index, sizes, keep=None):
    """The distinct blow-up rows on the basis columns whose part size is in
    ``sizes``, each at its first occurrence in code, then part, order;
    ``index`` maps a code to its column, and ``codes[i]`` to i.  With
    ``keep`` given, only the parts pos of code t with ``keep(t, pos)`` are
    made; its verdict must depend on the row alone, such as on its length,
    so that equal rows are kept or dropped together.

    Duplicates are found by the shape of a row, with no key per row.  The
    row of code i has +1 at column i, unless a spread cancels it, and no
    other positive entry.  So a row with a positive entry can only repeat
    a row of the same code, and is compared with that code's kept rows
    alone; at arity 2 there is one part, so with none.  The few rows with
    no positive entry (96 of the 4752 at (2, 97)) share one set.  A row of
    part size k has at most k + 1 entries, summing to 1 - k, so rows of
    two part sizes never meet: the rows of one size alone are deduplicated
    exactly.
    """
    parts = [pos for k in sizes
             for pos in combinations(range(n), k)]
    col = index.__getitem__
    unsigned = set()
    for i, t in enumerate(codes):
        kept = []
        for pos in parts:
            if keep is not None and not keep(t, pos):
                continue
            row = _blowup_row(t, N, pos, col, i)
            if row.get(i) == 1:
                if row in kept:
                    continue
                kept.append(row)
            else:
                key = frozenset(row.items())
                if key in unsigned:
                    continue
                unsigned.add(key)
            yield row


def _short_pair(t, pos):
    """Does the part pos = (p, q) of the sorted code t give a row of at most
    two entries?

    With x = t[p] <= y = t[q], the spreads replace the pair by (x, y - x)
    and by (x - y, y).  The first is t itself iff x = 0, the second iff
    y = 0, and the two are equal iff x = y; otherwise the row has three
    entries.  Since y = 0 forces x = 0, the row is short iff x is 0 or y.
    """
    x = t[pos[0]]
    return not x or x == t[pos[1]]


def _sparse_rows(n, N, codes, index):
    """The distinct k = 2 blow-up rows, sparse first, made one at a time:
    those of at most two entries, then the others.

    These rows, with the negation rows under minus, present the module
    over Z: every blow-up row of a larger part is a Z-combination of
    k = 2 rows.  Write [t] for the symbol of a tuple t in any entry order,
    s(t, Q, i) for its spread over the part Q keeping i (entry i stays,
    each other entry j of Q becomes t_j - t_i), and r(t, Q) for the row
    [t] - sum over i in Q of [s(t, Q, i)].  Let P be a part of k >= 3
    positions, p one of them, and P' the others.  For i in P', the spread
    of u_i = s(t, P', i) over {i, p} keeping i is s(t, P, i), since
    u_i holds t_p at p; keeping p, it is w_i, with t_i - t_p at i and
    t_j - t_i at each other j of P'.  With v = s(t, P, p), s(v, P', i) is
    w_i too, since (t_j - t_p) - (t_i - t_p) = t_j - t_i.  So

        r(t, P') + sum over i in P' of r(u_i, {i, p}) - r(v, P')
          = [t] - sum(i in P') [u_i]
            + sum(i in P') ([u_i] - [s(t, P, i)] - [w_i])
            - [v] + sum(i in P') [w_i]
          = [t] - sum(i in P) [s(t, P, i)] = r(t, P).

    A spread adds a multiple of one entry to others, so every tuple here
    generates the group t generates, and each term is a row of the same
    module on the column of its sorted code.  By induction on k, each
    blow-up row is a Z-combination of k = 2 rows, and those rows span
    the relation lattice.

    The order sets the fill-in.  Fed these rows short first, the Q rank's
    echelon visits 287716 pivots and updates 2.56M entries at (3, 43),
    against 337304 and 2.92M in code order; at (3, 53), 688392 and 7.25M
    against 835903 and 9.02M; at (2, 97), 15572 and 0.137M against 16154
    and 0.145M.  At arity 4 code order is cheaper: 797025 and 1.22M
    against 667854 and 0.95M at (4, 29).  ``_short_pair`` finds the short
    rows from two entries of the code, so they cost no second pass of row
    making.
    """
    yield from _blowup_rows(n, N, codes, index, (2,), _short_pair)
    yield from _blowup_rows(n, N, codes, index, (2,),
                            lambda t, pos: not _short_pair(t, pos))


def _negation_rows(n, N, codes, index):
    """The distinct negation rows on the basis columns, in code order.

    Negating one entry of code i gives code j; the row is {j: 1, i: 1},
    or {i: 2} when the entry is its own negative.  Negation is an
    involution, so the pair {i, j} is also met from j: it is kept only
    from min(i, j).  Equal entries give the same j, and every entry that
    is its own negative gives i itself, so each is taken once.
    """
    for i, t in enumerate(codes):
        doubled = False
        for p in range(n):
            a = t[p]
            if p and a == t[p - 1]:
                continue
            b = -a % N
            if b == a:
                if not doubled:
                    doubled = True
                    yield {i: 2}
                continue
            j = index[tuple(sorted(t[:p] + (b,) + t[p + 1:]))]
            if j > i:
                yield {j: 1, i: 1}


def _relations(n, N, codes, index, minus):
    """The distinct relation rows on the basis columns, each at its first
    occurrence: blow-up rows, then negation rows if minus.  The two
    families never meet, as their coefficients sum to 1 - k and to 2."""
    yield from _blowup_rows(n, N, codes, index, range(2, n + 1))
    if minus:
        yield from _negation_rows(n, N, codes, index)


def _project(vec, cols):
    """Sum sign * c at column j over the entries (key, c) of vec, where
    ``cols[key]`` is (j, sign), dropping zeros."""
    out = {}
    for key, c in vec.items():
        j, sign = cols[key]
        if sign:
            out[j] = out.get(j, 0) + sign * c
    return {j: c for j, c in out.items() if c}


def relation_rows(n, N, minus=False):
    """The distinct relation rows of the arity-n modulus-N module, as
    formal sums in ``_relations`` order."""
    return RelationMatrix(n, N, minus).rows


class RelationMatrix:
    """The arity-n modulus-N module presented by its relation rows.

    The module has a two-part presentation: the k = 2 blow-up rows, with
    the negation rows if minus, span the relation lattice over Z (proof
    at ``_sparse_rows``).  Only those rows are eliminated; the blow-up
    rows of larger parts are made only to be counted in ``relations``,
    and ``rows`` streams every relation row from ``_relations``.

    ``__init__`` builds only the coded basis: ``codes``, in column order,
    and ``index``, the column of each code.  The rest is built on first
    use and kept:

    - ``_echelon``, an echelon of the ``_presenting_rows`` on the basis
      columns and the count of those rows, taken in one pass over
      rows made one at a time: the negation rows if minus, then the k = 2
      rows, sparse first.  Rows left once every column holds a pivot are
      only counted.  No row list is held; ``quotient_rank()`` reads it.
    - ``mat``, the ``SparseMat`` of the same rows, for the Smith form.  No
      row is zero: its coefficients sum to -1 or 2.  Built first, its own
      echelon serves the Q rank; built after ``_echelon``, it takes that
      echelon, whose rank and scales certify the Smith form's primes for
      any row order, so the rows are eliminated once either way.
    - ``_span``, an echelon of the projected k = 2 rows alone, for
      membership (``holds``, ``contains``) and ``_spanning_rows``; it is
      all that descent reads, and a matrix used so never builds ``mat``.
    """

    def __init__(self, n, N, minus=False):
        self.n, self.N, self.minus = n, N, minus
        self.codes = _coded_symbols(n, N)
        self.index = {t: i for i, t in enumerate(self.codes)}

    def _presenting_rows(self):
        """The rows that present the module over Z, made one at a time:
        the negation rows if minus, then ``_sparse_rows``."""
        args = self.n, self.N, self.codes, self.index
        if self.minus:
            yield from _negation_rows(*args)
        yield from _sparse_rows(*args)

    @cached_property
    def mat(self):
        mat = SparseMat(self._presenting_rows(), len(self.codes))
        if "_echelon" in self.__dict__:
            mat._ech = self._echelon[0]
        return mat

    @cached_property
    def _echelon(self):
        """(ech, presenting rows): see the class docstring."""
        if "mat" in self.__dict__:
            return self.mat.echelon(), self.mat.nrows
        rows = self._presenting_rows()
        pulled = count()  # advanced once per row the echelon takes
        ech = Echelon((r for r, _ in zip(rows, pulled)), len(self.codes))
        return ech, next(pulled) + sum(1 for _ in rows)

    @cached_property
    def relations(self):
        """The number of distinct relation rows: the presenting rows, and
        the blow-up rows of larger parts, made here only to be counted,
        one part size at a time.  Rows of two part sizes never meet
        (``_blowup_rows``)."""
        presenting = (self.mat.nrows if "mat" in self.__dict__
                      else self._echelon[1])
        args = self.n, self.N, self.codes, self.index
        return presenting + sum(1 for k in range(3, self.n + 1)
                                for _ in _blowup_rows(*args, (k,)))

    @cached_property
    def _span(self):
        """(cols, ech): the span of the relation rows, for membership only.

        cols maps each basis code to (column, sign), and a vector v on the
        codes lies in the span of the relation rows exactly when its
        projection P v, ``_project(v, cols)``, lies in the span of
        ``ech``.  Without minus each code is its own column, with sign 1.
        With minus the columns are the negation classes that are not
        two-torsion: a code goes to its class with its sign
        (``_minus_rep``), a two-torsion code to sign 0.  ``ech`` is fed
        the distinct k = 2 rows of ``_blowup_rows`` one at a time, which
        span every blow-up row (``_sparse_rows``), and no row is made once
        every column holds a pivot.  With minus each row is projected;
        without, P is the identity on the basis columns and is skipped.
        No negation row is made.

        This is exact over Q.  P kills every negation row: a single
        negation flips the sign within a class, and a two-torsion code has
        sign 0.  Conversely, a negation row sets a code to minus its
        negated code, or kills a code with a self-negative entry, and
        single negations connect each class; so modulo the negation rows
        every code is its sign times its class's least code (zero in a
        two-torsion class), and the kernel of P lies in their span.  Hence
        v is in the span of all rows iff P v = P w for some w in the span
        of the blow-up rows, iff P v is in the span of the projected
        k = 2 rows.  The column count minus the rank of ``ech`` is
        ``quotient_rank()``.
        """
        signed = _minus_rep if self.minus else lambda t, L: (t, 1)
        reps, cols = {}, {}  # the column of each class, and of each code
        for t in self.codes:
            r, sign = signed(t, self.N)
            cols[t] = (reps.setdefault(r, len(reps)) if sign else None, sign)
        ncols = len(reps)
        del reps  # not held while the rows are eliminated
        rows = _blowup_rows(self.n, self.N, self.codes, self.index, (2,))
        if self.minus:
            proj = list(cols.values())
            rows = (_project(r, proj) for r in rows)
        return cols, Echelon(rows, ncols)

    def _spanning_rows(self):
        """Rows spanning the relation rows over Q, made one at a time: each
        pivot of the ``_span`` echelon, written on the basis column of its
        class's least code, then the negation rows if minus.

        Modulo the negation rows every code is its sign times its class's
        least code (see ``_span``), which has sign 1.  So a blow-up row
        equals its projection written on the least codes, modulo negation
        rows, and the pivots so written span the same space as the
        blow-up rows modulo them.  With the negation rows added, they span
        the relation rows, so nothing rests on the lemma that the
        operators send negation rows to negation rows.
        """
        cols, ech = self._span
        head = {}  # class column -> column of its least code, met first
        for i, t in enumerate(self.codes):
            head.setdefault(cols[t][0], i)
        for _, _, r in ech.pivots:
            yield {head[j]: c for j, c in r.items()}
        if self.minus:
            yield from _negation_rows(self.n, self.N, self.codes, self.index)

    def holds(self, vec):
        """Does the vector {code: coefficient} lie in the span of the
        relation rows?"""
        cols, ech = self._span
        return ech.contains(_project(vec, cols))

    @property
    def basis(self):
        """The basis symbols, in column order."""
        return [_dec(t, self.N) for t in self.codes]

    @property
    def rows(self):
        """Every distinct relation row as a formal sum, in ``_relations``
        order."""
        N, codes = self.N, self.codes
        return [_coded((((N, codes[i]), c) for i, c in r.items()), self.n,
                       False)
                for r in _relations(self.n, N, codes, self.index, self.minus)]

    def vectorize(self, fs):
        """Coordinates of a formal sum over the basis; None if it leaves it."""
        vec = {}
        for (M, t), c in fs.terms.items():
            i = self.index.get(t) if M == self.N else None
            if i is None:
                return None
            vec[i] = c
        return vec

    def contains(self, fs):
        """Does the formal sum lie in the span of the relation rows?"""
        return (self.vectorize(fs) is not None
                and self.holds({t: c for (_, t), c in fs.terms.items()}))

    def quotient_rank(self):
        """Dimension over Q of the presented module."""
        return len(self.codes) - self._echelon[0].rank

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
    coefficients are in play.  A representative keeps its symbol's
    modulus.
    """
    signed = ((M, _minus_rep(t, M), c) for (M, t), c in fs.terms.items())
    return fs._like(((M, rep), sign * c) for M, (rep, sign), c in signed
                    if sign != TWO_TORSION)
