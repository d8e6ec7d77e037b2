"""Exact sparse linear algebra over Z and Q.

A matrix is a list of sparse rows (dict column -> nonzero scalar); scalars
are ints or Fractions.

Rank and span (``Echelon``): every row is scaled to a primitive integer
row, which is harmless for ranks and row spans; an integer row costs one
``gcd`` call, and a Fraction row takes the lcm of its denominators.
Reduction is fraction
free: a row v with entry f under pivot p becomes (p*v - f*prow)/gcd(p, f),
so no Fraction arithmetic happens in the inner loop, and a new pivot row
is divided by its content.  A span query visits only the pivots whose
columns it meets: their positions go on a heap and are popped in the
order the pivots were found, and a reduction that brings in a later
pivot column pushes that pivot's position.  The echelon is built by that
same query: the rows, in the order the caller gives them, are each
reduced against the pivots found so far, and a nonzero residual becomes a
new pivot on its last (largest) column.  So no pivot row holds an earlier
pivot's column, and a pivot row is never updated again.  The caller puts
sparse rows first: ``SparseMat`` hands over its rows sorted by nnz (a
stable sort), and a relation matrix streams its rows in with no global
sort.  It presents its module in two parts: the two-part blow-up rows,
of at most three entries each, with the negation rows, span every
relation row over Z, so only they are eliminated; the Q rank's echelon
takes the shortest of them first, the span-only echelon takes them in
code order.  Both rules were measured on relation
matrices (2 cores, CPython 3.11.7): unsorted, the (2, 199, minus) matrix
took 0.95 s instead of 0.28 s; pivoting on the column rarest in the input
instead of the last, (3, 29) took 5.1 s instead of 0.28 s, with twice the
pivot nonzeros.  The price is denser pivot rows than a Markowitz
elimination (sparsest row, rarest column, every row under the pivot
updated) gives: 21740 pivot nonzeros against 10639 at (3, 29), in a third
of the time.  Once every column holds a pivot, any row inside the columns
is in the span: the query answers it at once, and the build pulls no
further row.

Smith form (``snf``): primes certified by the echelon, then unit pivots
mod a power of each, with no Euclid step and no column operation.  The
minor of the echelon's surviving rows on its pivot columns, times the
product of the reduction scalings, is the product of the row contents and
of the pivots before their content is divided out (``Echelon.scales``).
The product of the invariant factors divides that nonzero minor, so each
of their primes divides one of those values.  The values split into
pairwise coprime moduli m, and at each one the rows are eliminated mod m^E
level by level with unit pivots, as in Dumas, Saunders and Villard's
valence method (J. Symb. Comput. 2001); a candidate pivot that is a
nonzero nonunit mod m splits m by a gcd, as in Della Dora, Dicrescenzo
and Duval's dynamic evaluation (EUROCAL 1985).  Testing each row mod m
before reducing it mod m^E, and reducing a row that vanishes only when the
next level needs it, took the pass at m = 2 at (3, 37) from 1.7 s to
0.55 s (2 cores, CPython 3.11.7).
"""

import heapq
from math import gcd, lcm


def _primitive(row):
    """Scale a sparse row to integers and divide out the content.

    An integer row costs one ``gcd`` call, and is copied as it is when
    its content is 1 and it holds no zero, else divided by that content;
    a ``Fraction`` makes ``gcd`` raise, and the row is scaled by the lcm
    of its denominators.
    """
    try:
        g = gcd(*row.values())
    except TypeError:
        d = lcm(*[v.denominator for v in row.values()])
        return _strip({c: int(v * d) for c, v in row.items()})
    if g == 1 and all(row.values()):
        return dict(row)
    return {c: v // g for c, v in row.items() if v}


def _strip(row):
    """Divide an integer row by its content, dropping zeros; every entry
    comes out an int, a bool included."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items() if v}


def _reduce(v, pivots, position, q=0):
    """Forward-reduce the integer row v in place against the pivots.

    Only the pivots whose columns v meets are visited, popped from a heap
    of their positions in the order found; a pivot row brings in only
    later pivot columns, which join the heap.  With q set, the pivots are
    1 and every entry is taken mod q; an entry that is 0 mod q is never
    stored, so every stored entry is nonzero mod q.
    """
    heap = [position[c] for c in v if c in position]
    heapq.heapify(heap)
    get, pop, push = v.get, heapq.heappop, heapq.heappush
    while heap:
        col, p, prow = pivots[pop(heap)]
        f = get(col)
        if f is None:
            continue
        # v becomes a*v - b*prow, which clears col: a unit pivot needs
        # no scaling, any other scales v by p/gcd(p, f) first
        if p == 1 or p == -1:
            b = f * p
        else:
            g = gcd(p, f)
            b = f // g
            a = p // g
            if a != 1:
                for c in v:
                    v[c] *= a
        if not q:
            for c, x in prow.items():
                y = get(c)
                if y is None:
                    v[c] = -b * x  # b and x are nonzero, so is this
                    if c in position:
                        push(heap, position[c])
                elif y := y - b * x:
                    v[c] = y
                else:
                    del v[c]
            continue
        for c, x in prow.items():
            y = get(c)
            if y is None:
                y = -b * x % q
                if y:
                    v[c] = y
                    if c in position:
                        push(heap, position[c])
            else:
                y = (y - b * x) % q
                if y:
                    v[c] = y
                else:
                    del v[c]
    return v


class Echelon:
    """Pivot rows built by the span query itself, usable for span membership.

    The rows, any iterable of sparse rows whose columns lie in [0, ncols),
    are reduced in the order given, and pulled only until every column
    holds a pivot.  ``SparseMat`` checks the columns of its rows; a query
    row may leave them (``residual``).
    """

    def __init__(self, rows, ncols):
        self.ncols = ncols
        # pivots: list of (col, pivot_value, row_dict) in the order found.
        # Each pivot row is free of all earlier pivot columns, so forward
        # reduction in this order is a valid membership test.
        self.pivots = []
        self.position = {}
        # |pivot| of each residual before its content is divided out: with
        # the row contents, these hold every prime of an invariant factor
        self.scales = set()
        # the columns of [0, ncols) with no pivot yet; at none, every row
        # inside them is in the span, and no further row is pulled
        self.missing = ncols
        if not ncols:
            return
        for r in rows:
            if v := self.residual(r):
                col = max(v)
                self.scales.add(abs(v[col]))
                v = _strip(v)
                self.position[col] = len(self.pivots)
                self.pivots.append((col, v[col], v))
                self.missing -= 1
                if not self.missing:
                    break

    @property
    def rank(self):
        return len(self.pivots)

    def residual(self, row):
        """Forward-reduce a sparse row against the pivots; {} means in span.

        The row is scaled to a primitive integer row first; the result is
        not divided by its content.  Once every column of [0, ncols) holds
        a pivot, a row inside them is answered at once.
        """
        if not self.missing and all(0 <= c < self.ncols for c in row):
            return {}
        return _reduce(_primitive(row), self.pivots, self.position)

    def contains(self, row):
        return not self.residual(row)


class SparseMat:
    """A sparse matrix over Z or Q with exact rank and span queries.

    The matrix keeps the caller's row dicts, not copies; only a row that
    holds a zero entry is copied without it.  Neither the echelon nor
    ``snf`` writes to a row, so the caller's rows are never changed, but a
    caller that changes a row after handing it over changes the matrix.
    A caller already holding an echelon of the same rows, in another
    order, may set it as ``_ech``: rank, span and ``snf`` read any such
    echelon alike.
    """

    def __init__(self, rows, ncols):
        self.ncols = ncols
        self.rows = []
        for r in rows:
            if r and (min(r) < 0 or max(r) >= ncols):
                c = next(c for c in r if not 0 <= c < ncols)
                raise ValueError("column index %r out of range" % (c,))
            if not all(r.values()):
                r = {c: v for c, v in r.items() if v}
            self.rows.append(r)
        self._ech = None

    @classmethod
    def from_dense(cls, rows2d):
        ncols = max((len(r) for r in rows2d), default=0)
        return cls([{j: v for j, v in enumerate(r) if v} for r in rows2d], ncols)

    @property
    def nrows(self):
        return len(self.rows)

    def echelon(self):
        if self._ech is None:
            self._ech = Echelon(sorted(self.rows, key=len), self.ncols)
        return self._ech


def rank_q(mat):
    """Rank of the matrix over Q (exact)."""
    return mat.echelon().rank


def in_span(row, mat):
    """Is the given sparse row in the Q-row-space of the matrix?"""
    return mat.echelon().contains(row)


def _coprime(values):
    """Pairwise coprime moduli > 1 whose products make up every value."""
    base = {v for v in values if v > 1}
    while pair := next(((a, b) for a in base for b in base
                        if a < b and gcd(a, b) > 1), None):
        a, b = pair
        g = gcd(a, b)
        base -= {a, b}
        base |= {v for v in (g, a // g, b // g) if v > 1}
    return base


def _levels(rows, m, rank):
    """The m-adic valuations of the invariant factors, ascending.

    Level j eliminates its rows mod m^E with unit pivots, each also kept
    mod m for a first pass: a row that vanishes mod m waits, and is reduced
    mod m^E against all of the level's pivots and divided by m only when
    the next level asks for it.  A row at level j is known mod m^(E-j), so
    the levels below E are exact; if they find fewer than rank pivots, E
    doubles.  A candidate pivot that is a nonzero nonunit mod m returns its
    gcd with m, a proper divisor, instead.
    """
    e = 2
    while True:
        q = m ** e
        found = []
        level = ({c: x % q for c, x in r.items() if x % q} for r in rows)
        for j in range(e):
            pivots, units, position, waiting = [], [], {}, []
            for v in level:
                u = _reduce({c: x % m for c, x in v.items() if x % m},
                            units, position, m)
                if not u:
                    waiting.append(v)
                    continue
                col = max(u)
                if (g := gcd(u[col], m)) > 1:
                    return g
                v = _reduce(v, pivots, position, q)
                inv = pow(v[col], -1, q)
                v = {c: x * inv % q for c, x in v.items()}
                position[col] = len(pivots)
                pivots.append((col, 1, v))
                units.append((col, 1, {c: x % m for c, x in v.items()
                                       if x % m}))
                found.append(j)
                if len(found) == rank:
                    return found
            level = _lower(waiting, pivots, position, q, m)
        e *= 2


def _lower(rows, pivots, position, q, m):
    """The rows that vanished mod m, reduced mod q and divided by m."""
    for v in rows:
        yield {c: x // m for c, x in _reduce(v, pivots, position, q).items()}


def snf(mat):
    """Invariant factors d1 | d2 | ... of an integer matrix.

    The echelon's surviving rows have a nonzero minor whose primes all
    divide a row content or a value in ``ech.scales``, and the product of
    the invariant factors divides that minor.  So the factors are products
    of m**e over the coprime moduli m those values split into, with the
    ascending e of ``_levels``.  Fraction entries must be integral.
    """
    if any(v.denominator != 1 for r in mat.rows for v in r.values()):
        raise ValueError("snf needs integer entries")
    ech = mat.echelon()
    factors = [1] * ech.rank
    rows = sorted((r if all(type(v) is int for v in r.values())
                   else {c: int(v) for c, v in r.items()}
                   for r in mat.rows if r), key=len)
    moduli = _coprime(ech.scales | {gcd(*r.values()) for r in rows})
    while moduli and factors:
        m = moduli.pop()
        valuations = _levels(rows, m, ech.rank)
        if type(valuations) is int:
            moduli |= _coprime({valuations, m // valuations})
            continue
        factors = [d * m ** e for d, e in zip(factors, valuations)]
    return tuple(factors)
