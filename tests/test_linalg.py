"""Exact sparse linear algebra: rank over Q, span membership, Smith form."""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from birmod import SparseMat, in_span, linalg, rank_q, snf

small_entries = strat.integers(min_value=-4, max_value=4)


def dense(rows2d):
    return SparseMat.from_dense(rows2d)


def matrices(max_rows=5, max_cols=5, entries=small_entries):
    return strat.integers(min_value=1, max_value=max_cols).flatmap(
        lambda c: strat.lists(
            strat.lists(entries, min_size=c, max_size=c),
            min_size=1, max_size=max_rows))


# no entry of +-1, so the Smith form goes straight to the dense core
non_unit_entries = strat.sampled_from([-6, -4, -3, -2, 0, 0, 2, 3, 4, 6, 9])


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


def test_snf_examples():
    assert snf(dense([[2, 0], [0, 3]])) == (1, 6)
    assert snf(dense([[2, 4], [4, 8]])) == (2,)
    assert snf(dense([[0, 0]])) == ()
    # elementary divisors chain: each divides the next
    assert snf(dense([[4, 0, 0], [0, 6, 0], [0, 0, 10]])) == (2, 2, 60)


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


@hypothesis.given(matrices())
def test_snf_divisibility_chain(rows):
    factors = snf(dense(rows))
    assert len(factors) == rank_q(dense(rows))
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


@hypothesis.given(strat.one_of(matrices(7, 7),
                               matrices(7, 7, entries=non_unit_entries)))
def test_snf_matches_dense_smith_form(rows):
    m = dense(rows)
    assert snf(m) == linalg._dense_snf(m.rows, m.ncols)


def test_snf_refuses_non_integral_fractions():
    with pytest.raises(ValueError, match="integer"):
        snf(dense([[1, Fraction(3, 2)], [2, 0]]))
    assert snf(dense([[Fraction(4, 2), 0], [0, 3]])) == (1, 6)


def test_snf_core_budget(monkeypatch):
    # after the unit pivot the core is the 2x2 block diag(2, 4)
    m = dense([[1, 5, 7], [0, 2, 0], [0, 0, 4]])
    assert snf(m) == (1, 2, 4)
    monkeypatch.setattr(linalg, "SNF_MAX_CORE_COLS", 1)
    with pytest.raises(ValueError, match="core is 2 x 2"):
        snf(m)
