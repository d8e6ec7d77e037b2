"""Symbols, blow-up relations, relation matrices, signed quotient."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import lcm
from random import Random

import hypothesis
import hypothesis.strategies as strat
import pytest

import birmod.symbols
from birmod import (TWO_TORSION, FormalSum, QZ, SparseMat, blowup_relation,
                    canonicalize, enumerate_symbols, minus_canonicalize,
                    minus_reduce, rank_q, relation_matrix, relation_rows,
                    RelationMatrix,
                    sum_from_json, symbol_from_json, symbol_from_lattice)


def S(*entries):
    return canonicalize(Fraction(e) for e in entries)


def qz_entries(max_den=12):
    return strat.integers(min_value=1, max_value=max_den).flatmap(
        lambda q: strat.integers(min_value=0, max_value=q - 1).map(
            lambda p: QZ(p, q)))


def symbols(max_arity=3):
    return strat.lists(qz_entries(), min_size=1, max_size=max_arity).map(
        canonicalize)


def acceptable_symbols(max_arity=3):
    return symbols(max_arity).filter(lambda s: s.is_acceptable)


def euler_phi(N):
    return sum(1 for j in range(1, N + 1) if Fraction(j, N).denominator == N)


def test_canonical_form_examples():
    assert S("1/2", "1/3") == S("1/3", "1/2")
    assert tuple(S("2/3", "0", "7/6")) == (QZ(0), QZ(1, 6), QZ(2, 3))
    assert S("1/2").arity == 1
    assert S("1/6", "1/4").modulus == 12
    assert S("0", "0").modulus == 1 and not S("0", "0").is_acceptable
    with pytest.raises(ValueError):
        canonicalize([])


def test_in_module_checks_exact_modulus():
    assert S("1/2", "1/3").in_module(6)
    assert not S("1/2", "1/3").in_module(12)
    assert not S("1/2").in_module(6)


def test_json_round_trip():
    s = S("1/2", "2/3")
    assert symbol_from_json(s.to_json()) == s
    fs = FormalSum({S("1/3"): 2, S("1/2"): -1})
    assert sum_from_json(fs.to_json()) == fs
    rq = fs.to_rational().scale(Fraction(1, 2))
    assert sum_from_json(rq.to_json()) == rq and rq.rational


def test_lattice_constructor_rejects_trivial():
    assert symbol_from_lattice([Fraction(1, 2), Fraction(3, 2)]) == S("1/2", "1/2")
    with pytest.raises(ValueError):
        symbol_from_lattice([0, 1, 2])


def test_enumeration_examples():
    assert enumerate_symbols(1, 4) == [S("1/4"), S("3/4")]
    assert enumerate_symbols(2, 2) == [S("0", "1/2"), S("1/2", "1/2")]
    assert len(enumerate_symbols(2, 4)) == 7
    with pytest.raises(ValueError):
        enumerate_symbols(1, 1)
    with pytest.raises(ValueError):
        enumerate_symbols(0, 3)


@hypothesis.given(strat.integers(min_value=2, max_value=24))
def test_enumeration_arity_one_counts_units(N):
    assert len(enumerate_symbols(1, N)) == euler_phi(N)


@hypothesis.given(strat.integers(min_value=1, max_value=3),
                  strat.integers(min_value=2, max_value=8))
def test_enumeration_sorted_and_exact(n, N):
    syms = enumerate_symbols(n, N)
    assert syms == sorted(syms)
    assert len(set(syms)) == len(syms)
    for s in syms:
        assert s.arity == n and s.modulus == N


def test_formal_sum_modes():
    with pytest.raises(ValueError):
        FormalSum({S("1/2"): Fraction(1, 2)})
    ok = FormalSum({S("1/2"): Fraction(1, 2)}, rational=True)
    assert ok.terms[S("1/2")] == Fraction(1, 2)
    with pytest.raises(ValueError):
        FormalSum({S("1/2"): 1, S("1/2", "1/3"): 1})
    assert (ok - ok).is_zero()


def test_formal_sum_adds_keys_naming_one_symbol():
    # both keys canonicalize to <1/3, 1/2>; they add instead of overwriting
    assert FormalSum({("1/2", "1/3"): 1, ("1/3", "1/2"): 1}) == \
        2 * FormalSum.of(["1/2", "1/3"])
    # 3/2 is 1/2 in Q/Z
    assert FormalSum({(QZ(1, 2),): 1, (Fraction(3, 2),): -1}).is_zero()
    pairs = [(S("1/2", "1/3"), 1), (("1/3", "1/2"), 2), (S("1/5"), 0)]
    assert FormalSum(pairs) == FormalSum({S("1/2", "1/3"): 3})
    assert FormalSum([(S("1/2"), 1), (("3/2",), -1)]).is_zero()
    with pytest.raises(ValueError):
        FormalSum([(S("1/2"), 1), (S("1/2", "1/3"), 1)])
    # an arity is mixed in even when its terms cancel
    with pytest.raises(ValueError):
        FormalSum([(S("1/2"), 1), (S("1/2"), -1), (S("1/2", "1/3"), 1)])


@hypothesis.given(strat.integers(min_value=1, max_value=4).flatmap(
    lambda n: strat.dictionaries(
        strat.lists(qz_entries(), min_size=n, max_size=n).map(canonicalize),
        strat.integers(min_value=-3, max_value=3).filter(bool),
        min_size=1, max_size=10)))
def test_items_sorted_by_code_is_the_symbol_order(terms):
    fs = FormalSum(terms)
    assert [s for s, _ in fs.items()] == sorted(fs.terms)
    assert dict(fs.items()) == fs.terms


def test_blowup_examples():
    assert blowup_relation((Fraction(1, 2), Fraction(1, 2)), 2) == \
        FormalSum({S("1/2", "1/2"): 1, S("0", "1/2"): -2})
    assert blowup_relation((Fraction(0), Fraction(1, 2)), 2) == \
        FormalSum({S("1/2", "1/2"): -1})
    assert blowup_relation((Fraction(1, 3), Fraction(1, 3)), 2) == \
        FormalSum({S("1/3", "1/3"): 1, S("0", "1/3"): -2})
    assert blowup_relation(
        (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), 2, (0, 2)) == \
        FormalSum({S("1/6", "1/3", "1/2"): 1,
                   S("1/6", "1/3", "1/3"): -1,
                   S("1/3", "1/2", "2/3"): -1})

    # positions index the tuple as given, before it is sorted
    assert blowup_relation(
        (Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)), 2, (0, 2)) == \
        FormalSum({S("1/6", "1/3", "1/2"): 1,
                   S("1/6", "1/2", "5/6"): -1,
                   S("1/6", "1/6", "1/3"): -1})


def test_blowup_guards():
    with pytest.raises(ValueError):
        blowup_relation((Fraction(1, 2),), 2)
    with pytest.raises(ValueError):
        blowup_relation((Fraction(0), Fraction(0)), 2)
    with pytest.raises(ValueError):
        blowup_relation((Fraction(1, 2), Fraction(1, 3)), 2, modulus=12)
    with pytest.raises(ValueError):
        blowup_relation((Fraction(1, 2), Fraction(1, 2)), 2, (0, 0))


@hypothesis.given(acceptable_symbols(), strat.data())
def test_blowup_terms_share_the_modulus(s, data):
    hypothesis.assume(s.arity >= 2)
    k = data.draw(strat.integers(min_value=2, max_value=s.arity))
    rel = blowup_relation(s, k)
    for t, _ in rel.items():
        assert t.modulus == s.modulus


def test_relation_rows_deduplicated():
    rows = relation_rows(2, 3)
    keys = [tuple(r.items()) for r in rows]
    assert len(keys) == len(set(keys))
    assert all(not r.is_zero() for r in rows)


def reference_relations(n, N, minus):
    """Basis and relation rows from QZ arithmetic, in the package's order.

    Blow-up rows of every symbol and part, then the negation rows, each
    row kept at its first occurrence; shares no code with the level codec.
    """
    basis = [tuple(t) for t in combinations_with_replacement(
        [QZ(j, N) for j in range(N)], n)
        if lcm(*[a.order for a in t]) == N]

    def row(terms):
        out = {}
        for entries, c in terms:
            key = tuple(sorted(entries))
            out[key] = out.get(key, 0) + c
        return {key: c for key, c in out.items() if c}

    rows = []
    for t in basis:
        for k in range(2, n + 1):
            for pos in combinations(range(n), k):
                spreads = [[t[j] - t[i] if j in pos and j != i else t[j]
                            for j in range(n)] for i in pos]
                rows.append(row([(t, 1)] + [(u, -1) for u in spreads]))
    if minus:
        for t in basis:
            for p in range(n):
                flipped = [-a if j == p else a for j, a in enumerate(t)]
                rows.append(row([(flipped, 1), (t, 1)]))
    seen = {}
    for r in rows:
        if r:
            seen.setdefault(tuple(sorted(r.items())), r)
    return basis, list(seen.values())


@pytest.mark.parametrize("minus", [False, True])
def test_relation_rows_match_qz_reference(minus):
    for n in range(1, 4):
        for N in range(2, 9):
            basis, rows = reference_relations(n, N, minus)
            assert [r.terms for r in relation_rows(n, N, minus)] == rows
            m = RelationMatrix(n, N, minus)
            assert m.basis == basis
            col = {s: i for i, s in enumerate(basis)}
            assert m.mat.rows == [{col[s]: c for s, c in r.items()}
                                  for r in rows]


@pytest.mark.parametrize("minus", [False, True])
def test_relation_rows_are_the_matrix_rows(minus):
    for n in range(1, 4):
        for N in range(2, 10):
            rows = relation_rows(n, N, minus)
            mat_rows = RelationMatrix(n, N, minus).rows
            assert rows == mat_rows
            assert [list(r.terms.items()) for r in rows] == \
                [list(r.terms.items()) for r in mat_rows]


def test_relation_rows_decode_each_basis_code_once(monkeypatch):
    decoded = []
    dec = birmod.symbols._dec

    def counting(t, L):
        decoded.append((t, L))
        return dec(t, L)

    monkeypatch.setattr(birmod.symbols, "_dec", counting)
    rows = relation_rows(3, 7, True)
    assert rows and len(decoded) == len(set(decoded))


def test_rank_examples():
    m = relation_matrix(1, 12)
    assert (len(m.basis), m.quotient_rank()) == (4, 4)
    assert relation_matrix(2, 2).quotient_rank() == 0
    assert relation_matrix(2, 5).quotient_rank() == 2
    m2 = relation_matrix(1, 2, minus=True)
    assert m2.quotient_rank() == 0
    assert m2.invariant_factors() == (2,)


def test_span_membership():
    m = relation_matrix(2, 3)
    for r in m.rows:
        assert m.contains(r)
    foreign = FormalSum.of(S("1/2", "1/2"))
    assert m.vectorize(foreign) is None and not m.contains(foreign)


@lru_cache(maxsize=None)
def _cached_relmat(n, N):
    m = relation_matrix(n, N)
    return m, rank_q(m.mat)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(strat.integers(min_value=1, max_value=3),
                  strat.integers(min_value=2, max_value=6),
                  strat.integers(min_value=0, max_value=10**6))
def test_rank_independent_of_row_order(n, N, seed):
    m, base = _cached_relmat(n, N)
    rows = [dict(r) for r in m.mat.rows]
    Random(seed).shuffle(rows)
    assert rank_q(SparseMat(rows, m.mat.ncols)) == base


def test_minus_canonicalize_examples():
    assert minus_canonicalize(S("1/3")) == (S("1/3"), 1)
    assert minus_canonicalize(S("2/3")) == (S("1/3"), -1)
    assert minus_canonicalize(S("1/2")) == (S("1/2"), TWO_TORSION)
    assert minus_canonicalize(S("3/5", "4/5")) == (S("1/5", "2/5"), 1)
    assert minus_canonicalize(S("0", "1/2")) == (S("0", "1/2"), TWO_TORSION)


@hypothesis.given(symbols())
def test_minus_canonicalize_is_idempotent_and_negation_flips(s):
    rep, sign = minus_canonicalize(s)
    again, sign2 = minus_canonicalize(rep)
    assert again == rep and sign2 in (1, TWO_TORSION)
    # negating every entry multiplies the class by (-1)^arity
    neg, nsign = minus_canonicalize(canonicalize(-a for a in s))
    assert neg == rep
    if sign == TWO_TORSION:
        assert nsign == TWO_TORSION
    else:
        assert nsign == (sign if s.arity % 2 == 0 else -sign)


@hypothesis.given(symbols())
def test_minus_reduce_kills_negation_differences(s):
    neg = canonicalize(-a for a in s)
    fs = FormalSum.of(s).to_rational() - \
        FormalSum.of(neg).to_rational().scale((-1) ** s.arity)
    assert minus_reduce(fs).is_zero()


# Oracles that share no code with linalg: classical closed forms for the
# arity-2 ranks at prime N, and a machine-int rank over F_p for the Smith
# form.

@pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
def test_minus_rank_is_the_genus_of_x1(p):
    # genus of the modular curve X_1(p) for a prime p >= 5
    assert relation_matrix(2, p, minus=True).quotient_rank() \
        == (p - 5) * (p - 7) // 24


def test_minus_torsion_is_two_to_the_p_minus_2():
    # observed, not proved: at every prime 5 <= p <= 61 the arity-2
    # --minus module has torsion (Z/2)^(p-2); every core is 2 times a
    # 0/+-1 matrix, so this loads the Euclid step of the Smith form
    for p in [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]:
        factors = relation_matrix(2, p, minus=True).invariant_factors()
        assert sorted(set(factors)) == [1, 2]
        assert factors.count(2) == p - 2


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_plain_rank_closed_form(p):
    assert relation_matrix(2, p).quotient_rank() == (p * p + 23) // 24


def rank_mod(rows, p):
    """Rank over F_p of sparse integer rows, by Gaussian elimination."""
    pivots = {}
    for row in rows:
        r = {c: int(v) % p for c, v in row.items() if int(v) % p}
        while r:
            c = min(r)
            if c not in pivots:
                inv = pow(r[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in r.items()}
                break
            f = r[c]
            for k, v in pivots[c].items():
                x = (r.get(k, 0) - f * v) % p
                if x:
                    r[k] = x
                else:
                    del r[k]
    return len(pivots)


@pytest.mark.parametrize("n, N, minus", [(2, 36, True), (3, 12, False),
                                         (3, 16, True), (3, 17, False),
                                         (3, 19, False)])
def test_smith_form_against_rank_mod_p(n, N, minus):
    m = relation_matrix(n, N, minus)
    factors = m.invariant_factors()
    rank = len(m.basis) - m.quotient_rank()
    assert len(factors) == rank
    for p in (2, 3):
        assert sum(1 for d in factors if d % p == 0) \
            == rank - rank_mod(m.mat.rows, p)
