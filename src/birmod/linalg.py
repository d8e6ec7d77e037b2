"""Exact sparse linear algebra over Z and Q.

A matrix is a list of sparse rows (dict column -> nonzero scalar).  Scalars
are ints or Fractions; every row is scaled to a primitive integer row before
elimination, which is harmless for ranks and row spans.  Elimination is
fraction free: updates are cross multiplications followed by division of the
row by the gcd of its entries, so no Fraction arithmetic happens in the
inner loop and coefficients stay small.  Pivots are chosen Markowitz style
(sparsest available row, then the column of that row that is rarest among
the remaining rows), which keeps fill-in low on the near-diagonal relation
matrices produced elsewhere in this package.
"""

from fractions import Fraction
from math import gcd, lcm


def _primitive(row):
    """Scale a sparse row to integers and divide out the content."""
    items = [(c, v) for c, v in row.items() if v]
    if not items:
        return {}
    mult = lcm(*[Fraction(v).denominator for _, v in items]) if any(
        isinstance(v, Fraction) and v.denominator != 1 for _, v in items) else 1
    ints = {c: int(v * mult) for c, v in items}
    g = gcd(*ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


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
    """Pivot rows from one elimination pass, usable for span membership."""

    def __init__(self, rows, ncols):
        self.ncols = ncols
        # pivots: list of (col, pivot_value, row_dict) in elimination order.
        # Each pivot row is free of all earlier pivot columns, so forward
        # reduction in this order is a valid membership test.
        self.pivots = []
        active = [_primitive(r) for r in rows]
        active = [r for r in active if r]
        counts = {}
        for r in active:
            for c in r:
                counts[c] = counts.get(c, 0) + 1
        while active:
            ri = min(range(len(active)), key=lambda i: (len(active[i]), i))
            prow = active.pop(ri)
            col = min(prow, key=lambda c: (counts[c], abs(prow[c]), c))
            pval = prow[col]
            for c in prow:
                counts[c] -= 1
            nxt = []
            for r in active:
                if col in r:
                    for c in r:
                        counts[c] -= 1
                    f = r[col]
                    new = dict(r)
                    for c, v in prow.items():
                        new[c] = pval * new.get(c, 0) - f * v
                    for c in [c for c in new if c not in prow]:
                        new[c] = pval * new[c]
                    new = _strip(new)
                    if new:
                        for c in new:
                            counts[c] = counts.get(c, 0) + 1
                        nxt.append(new)
                else:
                    nxt.append(r)
            active = nxt
            self.pivots.append((col, pval, prow))

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


def snf(mat, max_cols=5000):
    """Invariant factors d1 | d2 | ... of an integer matrix.

    Dense Smith reduction with xgcd row/column operations; only attempted
    below the column threshold since it is meant for desk-scale matrices.
    Fraction entries are rejected, this is integral structure only.
    """
    if mat.ncols > max_cols:
        raise ValueError("snf limited to %d columns" % max_cols)
    m, n = mat.nrows, mat.ncols
    a = [[0] * n for _ in range(m)]
    for i, r in enumerate(mat.rows):
        for c, v in r.items():
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    raise ValueError("snf needs integer entries")
                v = v.numerator
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
