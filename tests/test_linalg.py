"""Exact sparse linear algebra: rank over Q, span membership, Smith form."""

from fractions import Fraction
from math import gcd

import hypothesis
import hypothesis.strategies as strat
import pytest

import birmod.linalg
from birmod import SparseMat, in_span, rank_q, snf

small_entries = strat.integers(min_value=-4, max_value=4)


def dense(rows2d):
    return SparseMat.from_dense(rows2d)


def matrices(max_rows=5, max_cols=5, entries=small_entries):
    return strat.integers(min_value=1, max_value=max_cols).flatmap(
        lambda c: strat.lists(
            strat.lists(entries, min_size=c, max_size=c),
            min_size=1, max_size=max_rows))


# no entry of +-1, so no pivot over Z is a unit
non_unit_entries = strat.sampled_from([-6, -4, -3, -2, 0, 0, 2, 3, 4, 6, 9])


def scaled_sign_matrices():
    """g times a 0/+-1 matrix, g in 2..6: the shape of the relation cores."""
    return strat.integers(min_value=2, max_value=6).flatmap(
        lambda g: matrices(7, 7, entries=strat.sampled_from([-g, 0, g])))


# row scales with deep valuations, a large prime and a product of two primes
# whose valuations a gcd must split apart
row_scales = strat.sampled_from([1, 2, 4, 8, 9, 27, 1009, 1009 ** 2,
                                 2 ** 61 - 1, 1000003 * 1000033])


def scaled_row_matrices():
    """A 0/+-1/+-2 matrix with each row scaled by one of ``row_scales``."""
    return matrices(6, 6, entries=strat.integers(-2, 2)).flatmap(
        lambda rows: strat.lists(row_scales, min_size=len(rows),
                                 max_size=len(rows)).map(
            lambda scales: [[s * v for v in r] for s, r in zip(scales, rows)]))


# The dense Smith routine that ``snf`` used to hand its core to, kept as an
# independent reference: xgcd row and column operations on a dense copy.
def xgcd_reference(a, b):
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


def dense_smith_reference(rows, n):
    """Invariant factors of integer sparse rows over n columns, densely.

    Smith reduction with xgcd row and column operations on a dense copy;
    cubic, so the tests hand it only small matrices.
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
                        g, x, y = xgcd_reference(a[top][top], a[i][top])
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
                        g, x, y = xgcd_reference(a[top][top], a[top][j])
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


def test_rank_examples():
    assert rank_q(dense([[1, 0], [0, 1]])) == 2
    assert rank_q(dense([[1, 2], [2, 4]])) == 1
    assert rank_q(dense([[0, 0], [0, 0]])) == 0
    assert rank_q(dense([[2, 4, 6], [1, 2, 3], [0, 1, 1]])) == 2


def test_rank_with_fractions():
    m = dense([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert rank_q(m) == 1


def test_in_span_examples():
    m = dense([[1, 0, 1], [0, 1, 1]])
    assert in_span({0: 1, 1: 1, 2: 2}, m)
    assert in_span({}, m)
    assert not in_span({0: 1}, m)
    # Fraction queries are scaled to primitive integer rows first
    assert in_span({0: Fraction(1, 2), 1: Fraction(1, 3),
                    2: Fraction(5, 6)}, m)
    assert not in_span({0: Fraction(1, 2), 2: Fraction(1, 3)}, m)
    assert in_span({0: Fraction(3, 4), 1: 0, 2: Fraction(3, 4)}, m)


def test_sparse_mat_keeps_rows_and_checks_columns():
    rows = [{0: 2, 2: 4}, {1: 0, 2: 3}, {}]
    before = [dict(r) for r in rows]
    m = SparseMat(rows, 3)
    # a row with no zero is kept as given, one with a zero is copied
    assert m.rows[0] is rows[0] and m.rows[2] is rows[2]
    assert m.rows[1] == {2: 3} and rows[1] == {1: 0, 2: 3}
    assert (rank_q(m), snf(m), in_span({0: 1, 2: 2}, m)) == (2, (1, 6), True)
    assert rows == before
    for bad in ({0: 1, 3: 1}, {-1: 1}, {3: 0}):
        with pytest.raises(ValueError, match="out of range"):
            SparseMat([{0: 1}, bad], 3)


def test_snf_examples():
    assert snf(dense([[2, 0], [0, 3]])) == (1, 6)
    assert snf(dense([[2, 4], [4, 8]])) == (2,)
    assert snf(dense([[0, 0]])) == ()
    # elementary divisors chain: each divides the next
    assert snf(dense([[4, 0, 0], [0, 6, 0], [0, 0, 10]])) == (2, 2, 60)
    # one gcd/lcm pass over the sorted diagonal gives (2, 3, 36), not a chain
    assert snf(dense([[4, 0, 0], [0, 6, 0], [0, 0, 9]])) == (1, 6, 36)


@hypothesis.given(matrices())
def test_rank_bounded_by_shape(rows):
    m = dense(rows)
    r = rank_q(m)
    assert 0 <= r <= min(len(rows), len(rows[0]))


@hypothesis.given(matrices(), strat.randoms(use_true_random=False))
def test_rank_invariant_under_row_shuffle(rows, rng):
    before = rank_q(dense(rows))
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rank_q(dense(shuffled)) == before


@hypothesis.given(matrices())
def test_row_combinations_stay_in_span(rows):
    m = dense(rows)
    combo = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            combo[j] = combo.get(j, 0) + (i + 1) * v
    assert in_span(combo, m)


def dense_rank_reference(rows2d):
    """Rank over Q by dense Gaussian elimination on Fraction copies."""
    a = [[Fraction(v) for v in r] for r in rows2d]
    rank = 0
    for j in range(max((len(r) for r in a), default=0)):
        piv = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][j] / a[rank][j]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


fraction_entries = strat.fractions(min_value=-3, max_value=3,
                                   max_denominator=6)


@strat.composite
def span_queries(draw):
    """A matrix and a query of its width.

    The query is a random row (mostly not in the span), a rational
    combination of the rows, or such a combination with one entry moved.
    """
    rows = draw(strat.one_of(matrices(5, 7),
                             matrices(5, 7, entries=non_unit_entries),
                             matrices(4, 6, entries=fraction_entries)))
    width = len(rows[0])
    kind = draw(strat.sampled_from(["random", "combination", "moved"]))
    if kind == "random":
        entries = strat.one_of(small_entries, non_unit_entries,
                               fraction_entries)
        return rows, draw(strat.lists(entries, min_size=width,
                                      max_size=width))
    coeffs = draw(strat.lists(strat.one_of(small_entries, fraction_entries),
                              min_size=len(rows), max_size=len(rows)))
    query = [sum(f * r[j] for f, r in zip(coeffs, rows))
             for j in range(width)]
    if kind == "moved":
        j = draw(strat.integers(min_value=0, max_value=width - 1))
        query[j] += draw(strat.sampled_from([-2, -1, 1, Fraction(1, 2)]))
    return rows, query


@hypothesis.settings(max_examples=400)
@hypothesis.given(span_queries())
def test_in_span_matches_dense_rank_oracle(case):
    # q is in the row span exactly when appending it keeps the rank
    rows, query = case
    member = (dense_rank_reference(rows + [query])
              == dense_rank_reference(rows))
    sparse = {j: v for j, v in enumerate(query) if v}
    assert in_span(sparse, dense(rows)) == member


@hypothesis.settings(max_examples=300)
@hypothesis.given(strat.one_of(matrices(5, 7),
                               matrices(5, 7, entries=non_unit_entries),
                               matrices(4, 6, entries=fraction_entries)))
def test_rank_matches_dense_rank_oracle(rows):
    m = dense(rows)
    assert rank_q(m) == dense_rank_reference(rows)
    # what the span query relies on: no pivot row holds the column of an
    # earlier pivot, so reducing in pivot order never undoes a cleared one
    pivots = m.echelon().pivots
    for k, (_, _, prow) in enumerate(pivots):
        assert not any(col in prow for col, _, _ in pivots[:k])


@strat.composite
def full_rank_queries(draw):
    """Random rows plus a non-unit diagonal, so every column holds a pivot,
    and a random query of the same width."""
    rows = draw(strat.one_of(matrices(4, 6),
                             matrices(4, 6, entries=fraction_entries)))
    width = len(rows[0])
    diag = draw(strat.lists(strat.sampled_from([-3, -2, 2, 3, 5]),
                            min_size=width, max_size=width))
    rows = rows + [[d if j == i else 0 for j in range(width)]
                   for i, d in enumerate(diag)]
    query = draw(strat.lists(strat.one_of(small_entries, fraction_entries),
                             min_size=width, max_size=width))
    return rows, query


@hypothesis.settings(max_examples=60)
@hypothesis.given(full_rank_queries(),
                  strat.integers(min_value=0, max_value=3),
                  strat.sampled_from([-1, 1, 2, Fraction(1, 3)]))
def test_full_rank_echelon_holds_every_row_in_range(case, beyond, value):
    rows, query = case
    m = dense(rows)
    width = len(query)
    assert rank_q(m) == width
    row = {j: v for j, v in enumerate(query) if v}
    assert in_span(row, m)
    # a column at or past ncols has no pivot, so the row stays outside
    row[width + beyond] = value
    assert not in_span(row, m)


def test_full_rank_build_skips_the_rows_left(monkeypatch):
    # the unit rows come first (sparsest); once they fill every column the
    # denser rows are in the span without a reduction
    reduced = []
    primitive = birmod.linalg._primitive
    monkeypatch.setattr(birmod.linalg, "_primitive",
                        lambda row: reduced.append(row) or primitive(row))
    m = dense([[1, 2, 3], [0, 4, 5], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank_q(m) == 3
    assert len(reduced) == 3
    assert in_span({0: 7, 1: -1, 2: Fraction(1, 2)}, m)
    assert len(reduced) == 3


@hypothesis.given(strat.one_of(matrices(8, 4),
                               matrices(8, 4, entries=fraction_entries)),
                  strat.data())
# the first three rows fill every column, so the last two are never pulled
@hypothesis.example([[0, 1, 2], [3, 0, 0], [1, 1, 1], [5, 6, 7], [0, 0, 9]],
                    None)
def test_streamed_echelon_stops_at_full_column_rank(rows, data):
    m = dense(rows)
    pulled = []

    def stream():
        for r in m.rows:
            pulled.append(r)
            yield r

    ech = birmod.linalg.Echelon(stream(), m.ncols)
    # the shortest prefix of full column rank, or every row
    need = next((i for i in range(1, len(rows))
                 if rank_q(SparseMat(m.rows[:i], m.ncols)) == m.ncols),
                len(rows))
    assert len(pulled) == need
    full = m.echelon()  # the same rows, sorted sparsest first
    assert ech.rank == full.rank
    queries = [[int(j == i) for j in range(m.ncols)] for i in range(m.ncols)]
    queries += rows
    if data is not None:
        queries += data.draw(strat.lists(
            strat.lists(strat.one_of(small_entries, fraction_entries),
                        min_size=m.ncols, max_size=m.ncols), max_size=3))
    for q in queries:
        row = {j: v for j, v in enumerate(q) if v}
        assert ech.contains(row) == full.contains(row), (rows, row)


@hypothesis.given(matrices())
def test_snf_divisibility_chain(rows):
    factors = snf(dense(rows))
    assert len(factors) == rank_q(dense(rows))
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


@hypothesis.given(strat.one_of(matrices(7, 7),
                               matrices(7, 7, entries=non_unit_entries),
                               scaled_sign_matrices(),
                               scaled_row_matrices()))
# each hangs an elimination that stores entries that are 0 mod its modulus
@hypothesis.example([[1, 1, 1, 0, 2, 0], [0, 294, 294, -147, -147, 147],
                     [-1, 0, 0, 2, 1, 0]])
@hypothesis.example([[-9, -1, -4], [0, 14, 19], [4, 0, 27], [-9, 26, 2],
                     [19, -7, 0]])
@hypothesis.example([[3, 1, -1, 3],
                     [0, 2, -6917529027641081853, -4611686018427387902],
                     [2305843009213693951, 3, 1, 1], [3, -1, 0, 3],
                     [1, 2305843009213693951, 4611686018427387902, 0]])
def test_snf_matches_dense_smith_form(rows):
    m = dense(rows)
    assert snf(m) == dense_smith_reference(m.rows, m.ncols)


def test_snf_refuses_non_integral_fractions():
    with pytest.raises(ValueError, match="integer"):
        snf(dense([[1, Fraction(3, 2)], [2, 0]]))
    assert snf(dense([[Fraction(4, 2), 0], [0, 3]])) == (1, 6)


def test_snf_core_budget():
    # after the unit pivot the rows left are the 2x2 block diag(2, 4)
    m = dense([[1, 5, 7], [0, 2, 0], [0, 0, 4]])
    assert snf(m) == (1, 2, 4)
