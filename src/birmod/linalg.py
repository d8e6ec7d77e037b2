"""Exact sparse linear algebra over Z and Q.

A matrix is a list of sparse rows (dict column -> nonzero scalar); scalars
are ints or Fractions.  Both eliminations below run on one private index:
the rows keyed by their original position, a column -> row ids index whose
list lengths are the live column counts, and a heap of (nnz, row id) that
yields the sparsest row, lowest id first on ties, and drops entries made
stale by updates.  A pivot touches only the rows listed under its column,
and only the pivot row's columns can enter or leave a row, so only their
lists change; no step rescans the whole matrix.

Rank and span (``Echelon``): every row is scaled to a primitive integer
row, which is harmless for ranks and row spans.  Elimination is fraction
free: a row r with entry f under pivot p becomes (p*r - f*prow)/gcd(p, f),
divided by its content, so no Fraction arithmetic happens in the inner loop
and coefficients stay small.  Pivots are chosen Markowitz style (Markowitz
1957): the sparsest row, then the column of that row that is rarest among
the live rows, then the smallest entry, which keeps fill-in low on the
near-diagonal relation matrices produced elsewhere in this package.

Smith form (``snf``): over Z a pivot of +-1 is unimodular, so it is cleared
with plain integer row updates and no content division, and contributes an
invariant factor 1 (Dumas, Saunders and Villard, J. Symb. Comput. 2001).
The rows left when no +-1 entry remains form the core, which gets a dense
xgcd Smith reduction; ``SNF_MAX_CORE_COLS`` caps the core's column count.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm

# Column budget of the dense Smith stage, checked on the core left after
# the +-1 pivots are cleared.
SNF_MAX_CORE_COLS = 5000


def _primitive(row):
    """Scale a sparse row to integers and divide out the content."""
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


class _Index:
    """Integer rows keyed by id, the ids under each column, a sparsest-row heap.

    ``cols[c]`` lists exactly the ids of the live rows with a nonzero in
    column c (lists rather than sets: they are much smaller).  The heap
    holds (nnz, id) pairs; one whose row has gone or changed length since
    it was pushed is stale and skipped when popped.
    """

    def __init__(self, rows):
        self.rows = {i: r for i, r in enumerate(rows) if r}
        self.cols = {}
        for i, r in self.rows.items():
            for c in r:
                self.cols.setdefault(c, []).append(i)
        self.heap = [(len(r), i) for i, r in self.rows.items()]
        heapq.heapify(self.heap)

    def pop(self):
        """Id of the sparsest live row not yet popped since its last change."""
        heap, rows = self.heap, self.rows
        while heap:
            nnz, i = heapq.heappop(heap)
            r = rows.get(i)
            if r is not None and len(r) == nnz:
                return i
        return None

    def eliminate(self, pid, col, unit):
        """Remove row ``pid`` and clear column ``col`` from every other row.

        With ``unit`` the pivot is +-1 and a row r with entry f becomes
        r - f*p*prow, a unimodular step; otherwise it becomes
        (p*r - f*prow)/gcd(p, f) divided by its content.  Updated rows go
        back on the heap.
        """
        rows, cols = self.rows, self.cols
        prow = rows.pop(pid)
        p = prow[col]
        for c in prow:
            if c != col:
                cols[c].remove(pid)
        for i in cols.pop(col):
            if i == pid:
                continue
            r = rows[i]
            f = r[col]
            if unit:
                b = f * p
            else:
                g = gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    for c in r:
                        r[c] *= a
            for c, v in prow.items():
                x = r.get(c)
                if x is None:
                    r[c] = -b * v
                    cols[c].append(i)
                else:
                    x -= b * v
                    if x:
                        r[c] = x
                    else:
                        del r[c]
                        if c != col:
                            cols[c].remove(i)
            if not r:
                del rows[i]
                continue
            if not unit:
                g = gcd(*r.values())
                if g > 1:
                    for c in r:
                        r[c] //= g
            heapq.heappush(self.heap, (len(r), i))


class Echelon:
    """Pivot rows from one elimination pass, usable for span membership."""

    def __init__(self, rows, ncols):
        self.ncols = ncols
        # pivots: list of (col, pivot_value, row_dict) in elimination order.
        # Each pivot row is free of all earlier pivot columns, so forward
        # reduction in this order is a valid membership test.
        self.pivots = []
        idx = _Index([_primitive(r) for r in rows])
        while (pid := idx.pop()) is not None:
            prow = idx.rows[pid]
            col = min(prow, key=lambda c: (len(idx.cols[c]), abs(prow[c]), c))
            idx.eliminate(pid, col, False)
            self.pivots.append((col, prow[col], prow))

    @property
    def rank(self):
        return len(self.pivots)

    def residual(self, row):
        """Forward-reduce a sparse row against the pivots; {} means in span."""
        v = _primitive(row)
        for col, pval, prow in self.pivots:
            if col in v:
                f = v[col]
                new = {c: pval * x for c, x in v.items()}
                for c, x in prow.items():
                    new[c] = new.get(c, 0) - f * x
                v = _strip(new)
            if not v:
                break
        return v

    def contains(self, row):
        return not self.residual(row)


class SparseMat:
    """A sparse matrix over Z or Q with exact rank and span queries."""

    def __init__(self, rows, ncols):
        self.ncols = ncols
        self.rows = []
        for r in rows:
            clean = {}
            for c, v in r.items():
                if not (0 <= c < ncols):
                    raise ValueError("column index %r out of range" % (c,))
                if v:
                    clean[c] = v
            self.rows.append(clean)
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


def _xgcd(a, b):
    """Extended gcd: returns (g, x, y) with a*x + b*y = g >= 0."""
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


def snf(mat):
    """Invariant factors d1 | d2 | ... of an integer matrix.

    +-1 pivots are cleared first, each giving a factor 1; the core left
    over goes to the dense routine, and ``ValueError`` is raised when it
    has more than ``SNF_MAX_CORE_COLS`` columns.  Fraction entries must be
    integral: this is integral structure only.
    """
    rows = []
    for r in mat.rows:
        ints = {}
        for c, v in r.items():
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    raise ValueError("snf needs integer entries")
                v = v.numerator
            if v:
                ints[c] = v
        rows.append(ints)
    idx = _Index(rows)
    ones = 0
    # a popped row without a +-1 entry stays in the index, and goes back on
    # the heap only if a later pivot changes it
    while (pid := idx.pop()) is not None:
        prow = idx.rows[pid]
        units = [c for c, v in prow.items() if v == 1 or v == -1]
        if units:
            col = min(units, key=lambda c: (len(idx.cols[c]), c))
            idx.eliminate(pid, col, True)
            ones += 1
    cols = sorted(c for c, ids in idx.cols.items() if ids)
    if len(cols) > SNF_MAX_CORE_COLS:
        raise ValueError(
            "Smith form core is %d x %d; the dense stage takes at most %d "
            "columns" % (len(idx.rows), len(cols), SNF_MAX_CORE_COLS))
    where = {c: j for j, c in enumerate(cols)}
    core = [{where[c]: v for c, v in r.items()} for r in idx.rows.values()]
    return (1,) * ones + _dense_snf(core, len(cols))


def _dense_snf(rows, n):
    """Invariant factors of integer sparse rows over n columns, densely.

    Smith reduction with xgcd row and column operations on a dense copy;
    cubic, so ``snf`` hands it only the core left after the +-1 pivots.
    """
    m = len(rows)
    a = [[0] * n for _ in range(m)]
    for i, r in enumerate(rows):
        for c, v in r.items():
            a[i][c] = v
    diag = []
    top = 0
    while True:
        pos = None
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pos = v, (i, j)
        if pos is None:
            break
        i0, j0 = pos
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[top], row[j0] = row[j0], row[top]
        while True:
            # clear column top with row operations; plain shears when the
            # pivot divides (an xgcd combine there can swap instead of
            # shear and cycle forever), xgcd otherwise, which strictly
            # shrinks the pivot and so happens only finitely often
            for i in range(top + 1, m):
                if a[i][top]:
                    rt, ri = a[top], a[i]
                    if a[i][top] % a[top][top] == 0:
                        f = a[i][top] // a[top][top]
                        for j in range(top, n):
                            ri[j] -= f * rt[j]
                    else:
                        g, x, y = _xgcd(a[top][top], a[i][top])
                        p, q = a[top][top] // g, a[i][top] // g
                        for j in range(top, n):
                            rt[j], ri[j] = x * rt[j] + y * ri[j], p * ri[j] - q * rt[j]
            # then column operations; only the xgcd branch can
            # reintroduce entries below the pivot
            for j in range(top + 1, n):
                if a[top][j]:
                    if a[top][j] % a[top][top] == 0:
                        f = a[top][j] // a[top][top]
                        for i in range(top, m):
                            a[i][j] -= f * a[i][top]
                    else:
                        g, x, y = _xgcd(a[top][top], a[top][j])
                        p, q = a[top][top] // g, a[top][j] // g
                        for i in range(top, m):
                            a[i][top], a[i][j] = x * a[i][top] + y * a[i][j], p * a[i][j] - q * a[i][top]
            if not any(a[i][top] for i in range(top + 1, m)):
                break
        diag.append(abs(a[top][top]))
        top += 1
        if top >= m or top >= n:
            break
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
