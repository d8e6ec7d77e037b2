"""Exact sparse linear algebra over Z and Q.

A matrix is a list of sparse rows (dict column -> nonzero scalar); scalars
are ints or Fractions.

Rank and span (``Echelon``): every row is scaled to a primitive integer
row, which is harmless for ranks and row spans.  Reduction is fraction
free: a row v with entry f under pivot p becomes (p*v - f*prow)/gcd(p, f),
so no Fraction arithmetic happens in the inner loop, and the content of
the result is divided out at the end.  A span query visits only the
pivots whose columns it meets: their positions go on a heap and are popped
in the order the pivots were found, and a reduction that brings in a later
pivot column pushes that pivot's position.  The echelon is built by that
same query: the rows, sparsest first (a stable sort by nnz), are each
reduced against the pivots found so far, and a nonzero residual becomes a
new pivot on its last (largest) column.  So no pivot row holds an earlier
pivot's column, and a pivot row is never updated again.  Both rules were
measured on relation matrices (2 cores, CPython 3.11.7): unsorted, the
(2, 199, minus) matrix took 0.95 s instead of 0.28 s; pivoting on the
column rarest in the input instead of the last, (3, 29) took 5.1 s
instead of 0.28 s, with twice the pivot nonzeros.  The price is denser
pivot rows than a Markowitz elimination (sparsest row, rarest column, every
row under the pivot updated) gives: 21740 pivot nonzeros against 10639 at
(3, 29), in a third of the time.  Once every column holds a pivot, any
row inside the columns is in the span: the query answers it at once, and
the build skips the rows left.

Smith form (``snf``): one Euclid step per pivot, on the rows by id, the
row ids under each column and one heap.  The pivot is the entry of least
|p| (then the sparsest row, the lowest row id, the rarest column), so a
+-1 is taken wherever one is left, as Dumas, Saunders and Villard do
(J. Symb. Comput. 2001), and gives the factor 1.  The heap holds
(bound, nnz, id) keys whose bound is a lower bound on the row's least
|entry|: a changed row goes on with bound 1, and its least entry is found
only when it comes off, so a long row is not rescanned on every update.
The step reduces the pivot's column modulo p, and once the column is
clear so is its row, by column operations that touch no other row.  A
step touches only the rows listed under its column, and nothing is copied
into a dense matrix.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm


def _primitive(row):
    """Scale a sparse row to integers and divide out the content."""
    if all(type(v) is int for v in row.values()):
        return _strip(row)
    d = lcm(*[v.denominator for v in row.values()])
    return _strip({c: int(v * d) for c, v in row.items()})


def _strip(row):
    """Divide an integer row by its content, dropping zeros."""
    items = {c: v for c, v in row.items() if v}
    if not items:
        return {}
    g = gcd(*items.values())
    if g > 1:
        items = {c: v // g for c, v in items.items()}
    return items


class Echelon:
    """Pivot rows built by the span query itself, usable for span membership."""

    def __init__(self, rows, ncols):
        self.ncols = ncols
        # pivots: list of (col, pivot_value, row_dict) in the order found.
        # Each pivot row is free of all earlier pivot columns, so forward
        # reduction in this order is a valid membership test.
        self.pivots = []
        self.position = {}
        # the columns of [0, ncols) with no pivot yet; at none, every row
        # inside them is in the span, and the rows left are skipped
        self.missing = ncols
        for r in sorted(rows, key=len):
            if v := self.residual(r):
                col = max(v)
                self.position[col] = len(self.pivots)
                self.pivots.append((col, v[col], v))
                if 0 <= col < ncols:
                    self.missing -= 1

    @property
    def rank(self):
        return len(self.pivots)

    def residual(self, row):
        """Forward-reduce a sparse row against the pivots; {} means in span.

        Only the pivots whose columns the row meets are visited, popped
        from a heap of their positions in the order found; a pivot row
        brings in only later pivot columns, which join the heap.  The
        result is a primitive row, determined up to sign.  Once every
        column of [0, ncols) holds a pivot, a row inside them is answered
        at once.
        """
        if not self.missing and all(0 <= c < self.ncols for c in row):
            return {}
        v = _primitive(row)
        position, pivots = self.position, self.pivots
        heap = [position[c] for c in v if c in position]
        heapq.heapify(heap)
        while heap:
            col, p, prow = pivots[heapq.heappop(heap)]
            f = v.get(col)
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
            for c, x in prow.items():
                y = v.get(c)
                if y is None:
                    v[c] = -b * x
                    if c in position:
                        heapq.heappush(heap, position[c])
                else:
                    y -= b * x
                    if y:
                        v[c] = y
                    else:
                        del v[c]
        return _strip(v)

    def contains(self, row):
        return not self.residual(row)


class SparseMat:
    """A sparse matrix over Z or Q with exact rank and span queries.

    The matrix keeps the caller's row dicts, not copies; only a row that
    holds a zero entry is copied without it.  Neither the echelon nor
    ``snf`` writes to a row, so the caller's rows are never changed, but a
    caller that changes a row after handing it over changes the matrix.
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
            self._ech = Echelon(self.rows, self.ncols)
        return self._ech


def rank_q(mat):
    """Rank of the matrix over Q (exact)."""
    return mat.echelon().rank


def in_span(row, mat):
    """Is the given sparse row in the Q-row-space of the matrix?"""
    return mat.echelon().contains(row)


def snf(mat):
    """Invariant factors d1 | d2 | ... of an integer matrix.

    The pivot is the entry p of least |p| (then the sparsest row, the
    lowest row id, the rarest column).  Every other row r with entry f in
    its column becomes r - (f // p)*prow.  If a remainder, smaller than
    |p|, is left there, the next pivot is chosen.  Otherwise column
    operations reduce the pivot row's other entries mod p; if none is left
    the row goes with the factor |p|, else it holds a smaller entry.  So
    the least entry falls at every step that removes no row.  Fraction
    entries must be integral: this is integral structure only.
    """
    # rows by id (the original position); cols[c] holds the ids of the rows
    # with a nonzero in column c, as the keys of an insertion-ordered dict,
    # so ids leave and join in O(1)
    rows, cols = {}, {}
    for i, r in enumerate(mat.rows):
        ints = {}
        for c, v in r.items():
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    raise ValueError("snf needs integer entries")
                v = v.numerator
            if v:
                ints[c] = v
                cols.setdefault(c, {})[i] = None
        if ints:
            rows[i] = ints
    # heap of (bound, nnz, id); a key whose row has gone or changed length
    # is stale, and a changed row is pushed afresh with bound 1
    heap = [(1, len(r), i) for i, r in rows.items()]
    heapq.heapify(heap)
    diag = []
    while rows:
        bound, nnz, pid = heapq.heappop(heap)
        prow = rows.get(pid)
        if prow is None or len(prow) != nnz:
            continue
        m = min(map(abs, prow.values()))
        # every live row has a key no larger than its own on the heap, so a
        # row at or under its popped bound is the least one
        if m > bound:
            heapq.heappush(heap, (m, nnz, pid))
            continue
        col = min((c for c, v in prow.items() if v == m or v == -m),
                  key=lambda c: (len(cols[c]), c))
        p = prow[col]
        left = [pid]
        for i in cols.pop(col):
            if i == pid:
                continue
            # row i -= b*prow: only prow's columns change
            r = rows[i]
            b = r[col] // p
            for c, v in prow.items():
                x = r.get(c)
                if x is None:
                    r[c] = -b * v
                    cols[c][i] = None
                else:
                    x -= b * v
                    if x:
                        r[c] = x
                    else:
                        del r[c]
                        if c != col:
                            del cols[c][i]
            if not r:
                del rows[i]
                continue
            heapq.heappush(heap, (1, len(r), i))
            if col in r:
                left.append(i)
        cols[col] = dict.fromkeys(left)
        if len(left) > 1:
            heapq.heappush(heap, (m, nnz, pid))
            continue
        # the column is clear, so column operations reduce the rest of the
        # row mod p and touch no other row
        for c in [c for c in prow if c != col]:
            prow[c] %= p
            if not prow[c]:
                del prow[c]
                del cols[c][pid]
        if len(prow) > 1:
            heapq.heappush(heap, (1, len(prow), pid))
        else:
            del rows[pid], cols[col]
            diag.append(abs(p))
    diag.sort()
    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                g = gcd(diag[i], diag[i + 1])
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
    return tuple(diag)
