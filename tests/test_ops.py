"""Scaling, lift, torsion-shift, product and coproduct operators plus the
law-verification drivers."""

import hashlib
import json
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from random import Random

import hypothesis
import hypothesis.strategies as strat
import pytest

import birmod.ops
from birmod import (TWO_TORSION, DeltaSum, FormalSum, QZ, RelationMatrix,
                    Symbol, blowup_relation, canonicalize, check_laws,
                    delta_op, descent_failures, e_op, enumerate_symbols,
                    minus_canonicalize, nabla_op, preimages, relation_rows,
                    rho_hat_op, rho_op, sigma_op, split_by_modulus, torsion)
from birmod.linalg import Echelon, SparseMat
from birmod.ops import (_concat, _delta_sum, _raw_delta, _raw_e, _raw_rho,
                        _raw_sigma, _same)
from birmod.symbols import _level, _raw_of, _sym


def S(*entries):
    return canonicalize(Fraction(e) for e in entries)


def one(*entries):
    return FormalSum.of(S(*entries))


def qz_entries(max_den=8):
    return strat.integers(min_value=1, max_value=max_den).flatmap(
        lambda q: strat.integers(min_value=0, max_value=q - 1).map(
            lambda p: QZ(p, q)))


def acceptable(max_arity=3):
    return strat.lists(qz_entries(), min_size=1, max_size=max_arity).map(
        canonicalize).filter(lambda s: s.is_acceptable)


ops_k = strat.integers(min_value=2, max_value=4)


def test_sigma_examples():
    assert sigma_op(2, one("1/2")).is_zero()
    assert sigma_op(2, one("1/3", "1/6")) == one("1/3", "2/3")
    assert sigma_op(3, one("1/3", "1/6")) == one("0", "1/2")
    assert sigma_op(1, one("1/5")) == one("1/5")


def test_rho_examples():
    assert rho_op(2, one("1/3")) == one("1/6") + one("2/3")
    assert rho_op(2, one("1/2", "1/2")) == \
        one("1/4", "1/4") + 2 * one("1/4", "3/4") + one("3/4", "3/4")


def test_rho_hat_examples():
    x = FormalSum.of(S("1/3"), rational=True)
    half = Fraction(1, 2)
    assert rho_hat_op(2, x) == \
        FormalSum({S("1/6"): half, S("2/3"): half}, rational=True)
    y = FormalSum.of(S("1/3", "1/3"), rational=True)
    assert sigma_op(2, rho_hat_op(2, y)) == y
    with pytest.raises(ValueError):
        rho_hat_op(2, one("1/3"))


def test_torsion_shift_examples():
    assert e_op(2, one("1/3")) == one("1/3") + one("5/6")
    assert e_op(2, one("1/3", "1/3")) == \
        one("1/3", "1/3") + 2 * one("1/3", "5/6") + one("5/6", "5/6")
    # the composite form only matches where scaling does not annihilate;
    # the all-zero shift of <1/2> is projected away
    assert e_op(2, one("1/2")) == one("1/2")
    assert rho_op(2, sigma_op(2, one("1/2"))).is_zero()


def test_scalar_composite_example():
    assert sigma_op(2, rho_op(2, one("1/3", "1/3"))) == 4 * one("1/3", "1/3")


def test_nabla_examples():
    prod = nabla_op(3, one("1/2"), one("1/3"))
    assert prod == one("1/6", "1/3") + one("1/3", "1/2") + one("1/3", "5/6")
    with pytest.raises(ValueError):
        nabla_op(1, one("1/2"), one("1/3"))
    with pytest.raises(ValueError):
        nabla_op(2, one("1/2"), one("1/3"))
    relaxed = nabla_op(2, one("1/2"), one("1/3"), strict=False)
    assert relaxed == one("1/4", "1/3") + one("1/3", "3/4")


def test_delta_examples():
    d = delta_op(one("1/6", "1/3"))
    assert d.items() == [((1, 1), S("1/2"), S("1/3"), 1)]
    assert delta_op(one("1/2", "1/2")).is_zero()
    assert delta_op(one("1/5")).is_zero()


def test_coalg_law_holds_at_coprime_scale():
    # the grid holds <1/6, 1/3>, and 5 is prime to every modulus but 5
    rep = check_laws("coalg", 2, 6, (5,))
    assert rep.failures_total == 0 and rep.laws[0].checked > 0


def test_split_by_modulus():
    fs = one("1/2") + 2 * one("1/3") - one("1/6")
    parts = split_by_modulus(fs)
    assert sorted(parts) == [2, 3, 6]
    assert parts[2] == one("1/2")
    assert parts[3] == 2 * one("1/3")
    assert parts[6] == -one("1/6")


@hypothesis.given(acceptable(), ops_k, ops_k)
def test_sigma_multiplicative(s, k, l):
    x = FormalSum.of(s)
    assert sigma_op(k, sigma_op(l, x)) == sigma_op(k * l, x)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(acceptable(max_arity=2), ops_k, ops_k)
def test_rho_multiplicative(s, k, l):
    x = FormalSum.of(s)
    assert rho_op(k, rho_op(l, x)) == rho_op(k * l, x)


@hypothesis.given(acceptable(), ops_k)
def test_sigma_rho_scalar(s, k):
    x = FormalSum.of(s)
    assert sigma_op(k, rho_op(k, x)) == (k ** s.arity) * x


@hypothesis.given(acceptable(), ops_k)
def test_e_matches_composite_off_kernel(s, k):
    x = FormalSum.of(s)
    hypothesis.assume(not sigma_op(k, x).is_zero())
    assert e_op(k, x) == rho_op(k, sigma_op(k, x))


@hypothesis.given(acceptable(max_arity=2), ops_k)
def test_averaged_lift_is_a_section(s, k):
    x = FormalSum.of(s, rational=True)
    assert sigma_op(k, rho_hat_op(k, x)) == x


def qz_sum(pairs):
    """Sum of c * <entries> over (entries, c) pairs, all-zero tuples dropped.

    Fed with operator images built from QZ arithmetic, ``preimages`` and
    ``torsion``, this is a reference that shares no code with the level
    coding inside the operators.
    """
    terms = {}
    for entries, c in pairs:
        if any(entries):
            s = canonicalize(entries)
            terms[s] = terms.get(s, 0) + c
    return FormalSum(terms)


def int_sums(max_arity=3, entries=qz_entries(max_den=12)):
    """Multi-term integer sums of one arity, entries of mixed modulus."""
    def of_arity(n):
        term = strat.tuples(strat.lists(entries, min_size=n, max_size=n),
                            strat.integers(min_value=-3, max_value=3))
        return strat.lists(term, min_size=1, max_size=4).map(qz_sum)
    return strat.integers(min_value=1, max_value=max_arity).flatmap(of_arity)


def nabla_reference(ell, x, y):
    return qz_sum((lift + sy, cx * cy)
                  for sx, cx in x.items()
                  for sy, cy in y.items()
                  for lift in product(*[preimages(a, ell) for a in sx]))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(int_sums(), ops_k)
def test_unary_ops_match_qz_reference(x, k):
    terms = x.items()
    assert sigma_op(k, x) == qz_sum(([k * a for a in s], c) for s, c in terms)
    assert rho_op(k, x) == qz_sum(
        (lift, c) for s, c in terms
        for lift in product(*[preimages(a, k) for a in s]))
    assert e_op(k, x) == qz_sum(
        ([a + t for a, t in zip(s, shift)], c) for s, c in terms
        for shift in product(torsion(k), repeat=len(s)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(ops_k, strat.data())
def test_nabla_matches_qz_reference(ell, data):
    x = data.draw(int_sums(max_arity=2))
    y = data.draw(int_sums(max_arity=2,
                           entries=strat.sampled_from(torsion(ell))))
    z = data.draw(int_sums(max_arity=2))
    assert nabla_op(ell, x, y) == nabla_reference(ell, x, y)
    assert nabla_op(ell, x, z, strict=False) == nabla_reference(ell, x, z)


# loop references for the codec expansions: every combination is visited
# in Python and added into a plain dict, zero coefficients always dropped.
# The sorted ones give the symmetric sums, the ordered ones keep each entry
# at its position, as the expansions themselves do.

def _drop_zeros(out):
    return {t: c for t, c in out.items() if c}


def sigma_reference(k, L, sums):
    out = {}
    for t, c in sums.items():
        key = tuple(sorted(k * i % L for i in t))
        out[key] = out.get(key, 0) + c
    return _drop_zeros(out)


def rho_reference(k, L, sums):
    out = {}
    for t, c in sums.items():
        for combo in product(*[range(i // k, L, L // k) for i in t]):
            key = tuple(sorted(combo))
            out[key] = out.get(key, 0) + c
    return _drop_zeros(out)


def e_reference(k, L, sums):
    shifts = range(0, L, L // k)
    out = {}
    for t, c in sums.items():
        for combo in product(shifts, repeat=len(t)):
            key = tuple(sorted((i + s) % L for i, s in zip(t, combo)))
            out[key] = out.get(key, 0) + c
    return _drop_zeros(out)


def concat_reference(a, b):
    out = {}
    for u, ca in a.items():
        for v, cb in b.items():
            key = tuple(sorted(u + v))
            out[key] = out.get(key, 0) + ca * cb
    return _drop_zeros(out)


def sigma_ordered_reference(k, L, sums):
    out = {}
    for t, c in sums.items():
        key = tuple(k * i % L for i in t)
        out[key] = out.get(key, 0) + c
    return _drop_zeros(out)


def rho_ordered_reference(k, L, sums):
    out = {}
    for t, c in sums.items():
        for combo in product(*[range(i // k, L, L // k) for i in t]):
            out[combo] = out.get(combo, 0) + c
    return _drop_zeros(out)


def e_ordered_reference(k, L, sums):
    shifts = range(0, L, L // k)
    out = {}
    for t, c in sums.items():
        for combo in product(shifts, repeat=len(t)):
            key = tuple((i + s) % L for i, s in zip(t, combo))
            out[key] = out.get(key, 0) + c
    return _drop_zeros(out)


def concat_ordered_reference(a, b):
    out = {}
    for u, ca in a.items():
        for v, cb in b.items():
            out[u + v] = out.get(u + v, 0) + ca * cb
    return _drop_zeros(out)


@strat.composite
def coded_sums(draw, L, step):
    """Coded sums of one arity at level L, entries multiples of step.

    Coefficients are nonzero ints and Fractions of either sign, mixed in
    one sum.  A term may bring its reversed tuple at the negated
    coefficient: both expand to the same tuples once sorted, which cancel.
    """
    n = draw(strat.integers(min_value=1, max_value=3))
    entry = strat.integers(min_value=0, max_value=L // step - 1).map(
        lambda j: j * step)
    coeff = strat.one_of(
        strat.integers(min_value=-3, max_value=3),
        strat.fractions(min_value=-2, max_value=2, max_denominator=4),
    ).filter(bool)
    terms = strat.tuples(strat.tuples(*[entry] * n), coeff, strat.booleans())
    sums = {}
    for t, c, cancel in draw(strat.lists(terms, min_size=1, max_size=4)):
        sums[t] = c
        if cancel and t[::-1] != t:
            sums[t[::-1]] = -c
    return sums


def test_codec_expansions_cancel_to_a_plain_empty_dict():
    # a tuple and its reverse cancel once the expansions are sorted
    pair = {(2, 4): 1, (4, 2): -1}
    for out in (_raw_sigma(2, 8, pair), _raw_rho(2, 8, pair),
                _raw_e(2, 8, pair), _concat(pair, {(1,): Fraction(1, 2)})):
        assert type(out) is dict and all(out.values())
        assert _sym(out) == {} and type(_sym(out)) is dict
    # two tuples with one ordered image cancel before any sort
    out = _raw_sigma(2, 8, {(1, 3): 1, (5, 7): -1})
    assert out == {} and type(out) is dict


def test_same_compares_sorted_sums():
    assert _same({(1, 2): 1}, {(2, 1): 1})
    assert not _same({(1, 2): 1}, {(1, 3): 1})


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(ops_k, strat.integers(min_value=2, max_value=6),
                  strat.data())
def test_codec_expansions_match_loop_reference(k, N, data):
    L = N * k
    lift_input = data.draw(coded_sums(L, k))
    x = data.draw(coded_sums(L, 1))
    y = data.draw(coded_sums(L, 1))
    for got, ordered, want in (
            (_raw_sigma(k, L, x), sigma_ordered_reference(k, L, x),
             sigma_reference(k, L, x)),
            (_raw_rho(k, L, lift_input),
             rho_ordered_reference(k, L, lift_input),
             rho_reference(k, L, lift_input)),
            (_raw_e(k, L, x), e_ordered_reference(k, L, x),
             e_reference(k, L, x)),
            (_concat(x, y), concat_ordered_reference(x, y),
             concat_reference(x, y))):
        assert type(got) is dict
        assert got == ordered
        assert all(got.values())
        assert _sym(got) == want


# QZ references for the signed form and the coproduct: every negation
# pattern is scanned, and the k-scaled coproduct is the coproduct with
# both legs then scaled by k and the right one re-canonicalized

def minus_reference(symbol):
    best, parities = None, set()
    for mask in range(1 << len(symbol)):
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


def delta_reference(x):
    out = DeltaSum()
    for s, coeff in x.items():
        n = len(s)
        for r in range(1, n):
            for right_pos in combinations(range(n), r):
                sub = tuple(s[i] for i in right_pos)
                m = lcm(*[a.order for a in sub])
                if m < 2:
                    continue
                left = tuple(sorted(s[i] * m for i in range(n)
                                    if i not in right_pos))
                if not any(left):
                    continue
                rep, sign = minus_reference(canonicalize(sub))
                if sign == TWO_TORSION:
                    continue
                out.add((n - r, r), Symbol(left), rep, sign * coeff)
    return out


def map_sigma_reference(d, k):
    out = DeltaSum()
    for split, l, r, c in d.items():
        left = tuple(sorted(a * k for a in l))
        if not any(left):
            continue
        rep, sign = minus_reference(canonicalize(a * k for a in r))
        if sign == TWO_TORSION:
            continue
        out.add(split, Symbol(left), rep, sign * c)
    return out


@strat.composite
def coproduct_sums(draw):
    """Sums of arity 1 to 4 with zero and two-torsion entries.

    A term may bring its twin with one entry negated at the same
    coefficient.  In a split whose right leg holds that entry the two
    signed forms agree with opposite signs, so those coproduct terms
    cancel.
    """
    n = draw(strat.integers(min_value=1, max_value=4))
    entry = strat.one_of(strat.sampled_from([QZ(0), QZ(1, 2)]),
                         qz_entries(max_den=12))
    terms = strat.tuples(strat.lists(entry, min_size=n, max_size=n),
                         strat.integers(min_value=-3, max_value=3),
                         strat.booleans())
    pairs = []
    for entries, c, twin in draw(strat.lists(terms, min_size=1,
                                             max_size=4)):
        pairs.append((entries, c))
        if twin:
            pairs.append(([-entries[0]] + entries[1:], c))
    return qz_sum(pairs)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(coproduct_sums(), strat.integers(min_value=1, max_value=6))
def test_coproduct_and_signed_form_match_qz_reference(x, k):
    for s, _ in x.items():
        assert minus_canonicalize(s) == minus_reference(s)
        scaled = canonicalize(k * a for a in s)
        assert minus_canonicalize(scaled) == minus_reference(scaled)
    d = delta_reference(x)
    assert delta_op(x) == d
    L = _level(x)
    got = _delta_sum(_raw_delta(k, L, _raw_of(x, L)), L)
    assert got == map_sigma_reference(d, k)


def test_check_laws_small_grid_passes():
    rep = check_laws("lemma48", 2, 4, (2, 3))
    assert rep.failures_total == 0
    by_name = {l.law: l for l in rep.laws}
    assert set(by_name) == {
        "scale_multiplicative", "lift_multiplicative", "scale_lift_commute",
        "lift_scale_torsion_shift", "scale_lift_scalar",
        "averaged_lift_section"}
    assert all(l.checked > 0 for l in rep.laws)
    assert "projected_composite_deviations" in rep.info
    assert "scalar_note" in rep.info
    # the annihilated-input composites really do deviate after projection
    assert rep.info["projected_composite_deviations"]


def test_check_laws_ringhom_small():
    rep = check_laws("ringhom", 1, 3, (2,))
    assert rep.failures_total == 0
    assert rep.laws[0].law == "lift_product_hom"
    assert rep.laws[0].checked == 9  # 3 symbols of modulus <= 3 on each side


def test_check_laws_coalg_small():
    rep = check_laws("coalg", 2, 5, (2, 3))
    assert rep.failures_total == 0
    assert isinstance(rep.info["non_coprime_reports"], list)


def test_check_laws_rejects_bad_input():
    with pytest.raises(ValueError):
        check_laws("lemma48", 2, 4, (1, 2))
    with pytest.raises(ValueError):
        check_laws("nosuite", 2, 4, (2,))
    for max_n, max_N in ((0, 4), (2, 1)):
        with pytest.raises(ValueError, match="empty grid"):
            check_laws("coalg", max_n, max_N, (2,))


@pytest.mark.parametrize("op", [rho_op, e_op, rho_hat_op])
def test_expanding_operators_refuse_huge_inputs(op):
    # 2^20 tuples: refused before the expansion starts
    x = FormalSum.of(S(*["1/3"] * 20), rational=True)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"1 term\(s\) into 2\^20 tuples"):
        op(2, x)
    assert time.perf_counter() - start < 1


def test_nabla_refuses_a_huge_lift():
    # 2^18 lifts of one arity-18 symbol: refused like rho_op, not expanded
    x = FormalSum.of(S(*["1/3"] * 18))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"nabla:2 .* 2\^18 tuples"):
        nabla_op(2, x, one("1/2"))
    with pytest.raises(ValueError, match=r"2\^18 tuples"):
        nabla_op(2, x, FormalSum({}, 1))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("suite, max_n, max_N, ks", [
    ("lemma48", 3, 200, (2,)),
    ("coalg", 12, 30, (2, 3)),
    ("coalg", 10 ** 10, 10 ** 10, (2,)),
    ("ringhom", 2, 10 ** 10, (2,)),
    # arity 1: k^2 tuples a symbol fit, the 16 law checks a symbol do not
    ("lemma48", 1, 1490, (2, 3)),
])
def test_check_laws_refuses_huge_grids_before_any_cell(monkeypatch, suite,
                                                       max_n, max_N, ks):
    # each cell's single expansion is small, but the symbols are many;
    # no cell may be built before the grid is refused
    def no_cells(n, N):
        raise AssertionError("a cell was built")
    monkeypatch.setattr(birmod.ops, "_coded_symbols", no_cells)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="grid cell"):
        check_laws(suite, max_n, max_N, ks)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("suite, max_n, max_N, ks", [
    # the cli defaults
    ("lemma48", 2, 6, (2, 3)), ("ringhom", 2, 6, (2, 3)),
    ("coalg", 2, 6, (2, 3)),
    # the benchmark's law grids
    ("lemma48", 3, 8, (2, 3, 4)), ("coalg", 3, 8, (2, 3, 5)),
    # the lemma48 grid at the work budget, and arity 1 within it
    ("lemma48", 2, 89, (2, 3)), ("lemma48", 1, 790, (2, 3)),
])
def test_grid_budget_admits_the_shipped_grids(suite, max_n, max_N, ks):
    birmod.ops._bound_grid(suite, max_n, max_N, ks)


def test_grid_budget_floors_a_lemma48_symbol_at_its_law_checks():
    # 16 law checks a symbol at ks 2,3: an arity-1 grid counts 32 tuples
    # a symbol, not 3^2; 2 + 3 + ... + 791 symbols then pass the budget
    with pytest.raises(ValueError, match=r"3\^2 tuples each \(a symbol "
                       r"at least 32, two per law check\)"):
        birmod.ops._bound_grid("lemma48", 1, 791, (2, 3))


def test_grid_budget_bounds_every_symbol():
    # C(N+n-1, n) bounds the symbols of a cell, so the grid size counts
    # at least the cells' symbols
    for n in range(1, 4):
        for N in range(2, 9):
            size = birmod.ops._grid_size(n, N, lambda _: 1)
            assert size >= sum(len(enumerate_symbols(m, M))
                               for m in range(1, n + 1)
                               for M in range(2, N + 1))


def test_report_json_shape():
    rep = check_laws("lemma48", 1, 3, (2,))
    doc = rep.to_json()
    assert doc["suite"] == "lemma48"
    assert doc["failures_total"] == 0
    assert {"law", "checked", "failures", "samples"} <= set(doc["laws"][0])
    assert doc["grid"] == {"max_n": 1, "max_N": 3, "ks": [2]}


def test_operators_send_blowup_rows_to_blowup_rows():
    # no linear algebra: on the tuple t as given and a part P, scaling
    # gives sigma_k r(t, P) = r(kt, P), and the lift and the torsion shift
    # give the sum of r(t', P) over the preimages t' of t and over its
    # shifts t' = t + s by k-torsion tuples; r(0, P) projects to zero
    def r(t, part):
        return (blowup_relation(t, len(part), part) if any(t)
                else FormalSum())

    def total(ts, part):
        out = FormalSum()
        for t in ts:
            out = out + r(t, part)
        return out

    bad = []
    for n, max_N in ((2, 12), (3, 5)):
        parts = [P for m in range(2, n + 1)
                 for P in combinations(range(n), m)]
        for N in range(2, max_N + 1):
            for t, P, k in product(enumerate_symbols(n, N), parts, (2, 3)):
                row = r(t, P)
                want = {
                    sigma_op: r(tuple(k * a for a in t), P),
                    rho_op: total(product(*[preimages(a, k) for a in t]), P),
                    e_op: total((tuple(a + b for a, b in zip(t, s))
                                 for s in product(torsion(k), repeat=n)), P)}
                bad += [(t, P, k, op.__name__) for op, w in want.items()
                        if op(k, row) != w]
    assert bad == []


def test_descent_small_cases():
    assert descent_failures(2, 4, False, (2, 3)) == []
    assert descent_failures(2, 4, True, (2, 3)) == []
    with pytest.raises(ValueError):
        descent_failures(2, 4, False, (0,))


@pytest.mark.parametrize("minus", [False, True])
@pytest.mark.parametrize("ks", [[0], [2, 0], [2, -1], [2.0], ["2"]])
def test_descent_checks_every_k_before_building(monkeypatch, minus, ks):
    # every k is refused before any relation matrix is built: (1, 5)
    # without the signed quotient has no relation rows, so a k checked
    # per row is never looked at
    built = []
    monkeypatch.setattr(birmod.ops, "RelationMatrix",
                        lambda *args: built.append(args))
    with pytest.raises(ValueError):
        descent_failures(1, 5, minus, ks)
    assert built == []


@pytest.mark.parametrize("n, N, minus", [(2, 4, False), (2, 6, True),
                                         (3, 4, True), (2, 3, False)])
def test_descent_images_match_public_operators(monkeypatch, n, N, minus):
    # with no certificate and no span membership every image component is
    # reported, so the report lists the coded images in full; at N = 3
    # scaling by 3 kills every symbol and the torsion shift by 3 reaches
    # the all-zero tuple
    monkeypatch.setattr(birmod.ops, "_commutes", lambda *args: False)
    monkeypatch.setattr(Echelon, "contains", lambda self, row: False)
    want = []
    for i, row in enumerate(relation_rows(n, N, minus)):
        for k in (2, 3):
            for name, op in (("scale", sigma_op), ("lift", rho_op),
                             ("torsion_shift", e_op)):
                for M, comp in split_by_modulus(op(k, row)).items():
                    want.append({"row": i, "k": k, "op": name,
                                 "target_modulus": M,
                                 "component": comp.to_json()})
    got = descent_failures(n, N, minus, (2, 3))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_operators_refuse_bool_indices():
    # True is an int, and sigma_op(True, x) used to return x as k = 1
    x = one("1/3", "1/2")
    for op in (sigma_op, rho_op, e_op):
        with pytest.raises(ValueError):
            op(True, x)
    with pytest.raises(ValueError):
        rho_hat_op(True, x.to_rational())


@pytest.mark.parametrize("minus", [False, True])
@pytest.mark.parametrize("ks", [(), [], (True,), (2, False), (2, 0)])
def test_descent_refuses_bad_indices_before_any_rows(monkeypatch, minus, ks):
    # an empty list would check nothing and pass; no source or target is
    # made before every index is checked
    built = []
    monkeypatch.setattr(birmod.ops, "RelationMatrix",
                        lambda *args: built.append(args))
    with pytest.raises(ValueError):
        descent_failures(2, 4, minus, ks)
    assert built == []


def _skewed(raw, extra):
    """raw with extra(k, t) added, times c, for each term (t, c) of sums."""
    def skewed(k, L, sums):
        out = dict(raw(k, L, sums))
        for t, c in sums.items():
            for u in extra(k, t):
                out[u] = out.get(u, 0) + c
        return {t: c for t, c in out.items() if c}
    return skewed


# scaling by 3 also keeps each symbol with an entry coded 1, and the lift
# by 3 (at level 3N, where 1/N is coded 3) adds a second copy of the
# first preimage of each symbol with an entry 1/N, so only some rows escape
_SKEWS = {"_raw_sigma": lambda k, t: [t] if k == 3 and 1 in t else [],
          "_raw_rho": lambda k, t: ([tuple(i // k for i in t)]
                                    if k == 3 and k in t else [])}


def _public_report(n, N, minus):
    """The relation rows and the descent report, from public calls."""
    targets = {}
    want = []
    rows = relation_rows(n, N, minus)
    for i, row in enumerate(rows):
        for k in (2, 3):
            for name, op in (("scale", sigma_op), ("lift", rho_op),
                             ("torsion_shift", e_op)):
                for M, comp in split_by_modulus(op(k, row)).items():
                    if M not in targets:
                        targets[M] = RelationMatrix(n, M, minus)
                    if not targets[M].contains(comp):
                        want.append({"row": i, "k": k, "op": name,
                                     "target_modulus": M,
                                     "component": comp.to_json()})
    return rows, want


@pytest.mark.parametrize("n, N, minus", [(2, 5, False), (2, 8, False),
                                         (2, 11, True), (1, 7, True)])
def test_descent_reports_the_rows_a_skewed_operator_moves(monkeypatch, n, N,
                                                          minus):
    # the public operators call the same skewed expansion; the skewed
    # lift escapes at level 3N
    for raw, extra in _SKEWS.items():
        with monkeypatch.context() as patch:
            patch.setattr(birmod.ops, raw,
                          _skewed(getattr(birmod.ops, raw), extra))
            rows, want = _public_report(n, N, minus)
            assert 0 < len({w["row"] for w in want}) < len(rows), raw
            if raw == "_raw_rho":
                assert {w["op"] for w in want} == {"lift"}
            assert descent_failures(n, N, minus, (2, 3)) == want
            # a repeated index is checked and reported once, in first-seen
            # order
            assert descent_failures(n, N, minus, (2, 3, 3, 2)) == want


def test_descent_presents_each_module_once(monkeypatch):
    # every cell of the benchmark grid descends by its certificate, which
    # reads the source's one echelon alone: a cell asks no target
    # and builds one echelon and no row matrix.  A cell that escapes asks
    # each target once, streams its relation rows and builds no row
    # matrix either
    made, echelons, asked = [], [], []
    sparse_init, init = SparseMat.__init__, Echelon.__init__

    def recording_sparse(self, rows, ncols):
        sparse_init(self, rows, ncols)
        made.append(self)

    def recording_init(self, rows, ncols):
        init(self, rows, ncols)
        echelons.append(self)

    def recording_matrix(n, N, minus):
        asked.append((n, N, minus))
        return RelationMatrix(n, N, minus)

    total = 0
    with monkeypatch.context() as patch:
        patch.setattr(SparseMat, "__init__", recording_sparse)
        patch.setattr(Echelon, "__init__", recording_init)
        patch.setattr(birmod.ops, "RelationMatrix", recording_matrix)
        for n in range(1, 4):
            for N in range(2, 7):
                for minus in (False, True):
                    echelons.clear()
                    asked.clear()
                    assert descent_failures(n, N, minus, (2, 3)) == []
                    assert asked == [(n, N, minus)]
                    total += len(echelons)
        assert made == []
        assert total == 30
        patch.setattr(birmod.ops, "_raw_sigma",
                      _skewed(birmod.ops._raw_sigma, _SKEWS["_raw_sigma"]))
        echelons.clear()
        asked.clear()
        assert descent_failures(2, 5, False, (2, 3)) != []
        assert asked[0] == (2, 5, False) and len(asked) > 1
        assert len(set(asked)) == len(asked) == len(echelons)
        assert made == []
    # a rank over Q and a Smith form on one presentation eliminate its
    # rows once, on the full basis columns
    for n in range(1, 4):
        for N in range(2, 7):
            for minus in (False, True):
                source = RelationMatrix(n, N, minus)
                with monkeypatch.context() as patch:
                    patch.setattr(Echelon, "__init__", recording_init)
                    echelons.clear()
                    rank = source.quotient_rank()
                    source.invariant_factors()
                    assert [(e.ncols, e.rank) for e in echelons] == \
                        [(len(source.codes), len(source.codes) - rank)]


def test_descent_expands_each_basis_code_once_per_operator(monkeypatch):
    # by linearity a row's image sums the images of its basis codes, so
    # each code is expanded at most once per (k, operator), whatever the
    # number of rows it sits in
    expanded = Counter()
    for name in ("_raw_sigma", "_raw_rho", "_raw_e"):
        def counting(k, L, sums, raw=getattr(birmod.ops, name), name=name):
            expanded.update((name, k, t) for t in sums)
            return raw(k, L, sums)
        monkeypatch.setattr(birmod.ops, name, counting)
    assert descent_failures(3, 5, True, (2, 3)) == []
    assert expanded and max(expanded.values()) == 1


def _random_skew(rng):
    """A seeded skew of one expansion, as (name, skewed expansion).

    For the codes t and indices k it picks, each tuple v of the image of
    t that it picks is moved: rotated, its first two entries swapped, a
    copy shifted by a constant added, doubled, or dropped.  Only a
    doubling respects the spreads and negations of positions.
    """
    name = rng.choice(["_raw_sigma", "_raw_rho", "_raw_e"])
    kind = rng.choice(["rotate", "swap", "shift", "double", "drop"])
    only_k = rng.choice([None, 2, 3])
    d_code, r_code = rng.choice([1, 2, 3]), rng.randrange(3)
    d_tuple, r_tuple = rng.choice([1, 2, 3]), rng.randrange(3)
    step = rng.choice([1, 2])
    raw = getattr(birmod.ops, name)

    def moved(v, m, L):
        if kind == "rotate":
            return [(v[1:] + v[:1], m)]
        if kind == "swap":
            return [(v[1::-1] + v[2:], m)]
        if kind == "shift":
            return [(v, m), (tuple((x + step) % L for x in v), m)]
        if kind == "double":
            return [(v, 2 * m)]
        return []

    def skewed(k, L, sums):
        out = {}
        for t, c in sums.items():
            image = raw(k, L, {t: c})
            if only_k in (None, k) and (sum(t) + r_code) % d_code == 0:
                image = [(u, x) for v, m in image.items()
                         for u, x in ((sum(v) + r_tuple) % d_tuple == 0
                                      and moved(v, m, L) or [(v, m)])]
            else:
                image = image.items()
            for u, x in image:
                out[u] = out.get(u, 0) + x
        return {u: x for u, x in out.items() if x}
    return name, skewed


def test_descent_certificate_is_sound(monkeypatch):
    # a certificate that holds proves that no row escapes, whatever the
    # operator: under seeded random skews, some of which move entries
    # between positions, the span route alone must then report nothing.
    # Either way descent reports what the span route reports
    real = birmod.ops._commutes
    verdicts = []

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    rng = Random(20261021)
    cells = [(1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
    seen = Counter()
    for case in range(210):
        n, N = cells[case % len(cells)]
        minus = case % 2 == 1
        name, skewed = _random_skew(rng)
        with monkeypatch.context() as patch:
            patch.setattr(birmod.ops, name, skewed)
            patch.setattr(birmod.ops, "_commutes", spy)
            verdicts.clear()
            got = descent_failures(n, N, minus, (2, 3))
            certified = all(verdicts)
            patch.setattr(birmod.ops, "_commutes", lambda *args: False)
            span = descent_failures(n, N, minus, (2, 3))
        assert got == span, (case, n, N, minus)
        assert span == [] or not certified, (case, n, N, minus)
        seen[certified, span == []] += 1
    assert seen[True, True] and seen[False, True] and seen[False, False]
    # the span route alone, with the real operators, on the benchmark grid
    with monkeypatch.context() as patch:
        patch.setattr(birmod.ops, "_commutes", lambda *args: False)
        for n in range(1, 4):
            for N in range(2, 7):
                for minus in (False, True):
                    assert descent_failures(n, N, minus, (2, 3)) == []


def test_certificate_checks_every_map_of_each_generator():
    # one generator at a time: with the real lift every check holds, and
    # doubling the image of the one code that a single map of the
    # generator reaches (each spread of a part, or the negation) fails it
    checked = 0
    for n, N in ((2, 7), (3, 5)):
        source = RelationMatrix(n, N, True)
        L, codes = 2 * N, source.codes

        def lift(j):
            return _raw_rho(2, L, {tuple([2 * x for x in codes[j]]): 1})

        for i, pos, _ in source._spanning_rows():
            assert birmod.ops._commutes(source, [(i, pos)], L, lift)
            reached = []
            for a, b, c in birmod.ops._maps(pos):
                u = list(codes[i])
                u[b] = (c * u[b] - u[a]) % N
                reached.append(source.index[tuple(sorted(u))])
            for j in reached:
                if reached.count(j) > 1 or j == i:
                    continue
                skewed = (lambda col, j=j: {v: 2 * m for v, m in
                                            lift(col).items()}
                          if col == j else lift(col))
                assert not birmod.ops._commutes(source, [(i, pos)], L,
                                                skewed), (n, N, i, pos)
                checked += 1
    assert checked == 56


def test_law_expansions_count_integers(monkeypatch):
    # every law cell expands with integer multiplicities: a rational
    # factor such as the averaged lift's 1/k^n divides a counted result
    runs_seen = Counter()

    def checking(runs, count=birmod.ops._count):
        def each():
            for c, run in runs:
                assert type(c) is int, c
                runs_seen[suite] += 1
                yield c, run
        return count(each())

    monkeypatch.setattr(birmod.ops, "_count", checking)
    for suite, max_n, max_N in (("lemma48", 2, 6), ("ringhom", 1, 4),
                                ("coalg", 2, 6)):
        assert check_laws(suite, max_n, max_N, (2, 3)).failures_total == 0
    assert runs_seen["lemma48"] and runs_seen["ringhom"]


def test_law_failure_samples_are_unchanged(monkeypatch):
    # every check fails, so every sample is built; the reports are those
    # the suites gave when they built a sample for every check
    monkeypatch.setattr(birmod.ops, "_same", lambda a, b: False)
    tag = {"n": 1, "N": 2, "symbol": ["1/2"]}
    pairs = [{**tag, "k": k, "l": l} for k in (2, 3) for l in (2, 3)]
    singles = [{**tag, "k": k} for k in (2, 3)]
    rep = check_laws("lemma48", 1, 2, (2, 3))
    assert {l.law: l.samples for l in rep.laws} == {
        "scale_multiplicative": pairs,
        "lift_multiplicative": pairs,
        "scale_lift_commute": [pairs[1], pairs[2]],
        "lift_scale_torsion_shift": singles,
        "scale_lift_scalar": singles,
        "averaged_lift_section": singles}
    rep = check_laws("ringhom", 1, 2, (2,))
    assert rep.laws[0].samples == [{"nx": 1, "mx": 2, "ny": 1, "my": 2,
                                    "k": 2, "l": 2, "x": ["1/2"],
                                    "y": ["1/2"]}]
    # the whole reports, as ``laws --json`` writes them
    for args, digest in (
            (("lemma48", 2, 3, (2, 3)), "b4be6ee8ccc54fe11954709c0f9b4fdf"
                                        "8f05c31ab3b514c487817cd6fff32f8c"),
            (("ringhom", 1, 3, (2,)), "cfe17020016e29486714e8faa2410064"
                                      "1115115aa7df18d51f648bd817d127cb")):
        doc = json.dumps(check_laws(*args).to_json(), sort_keys=True,
                         indent=2)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_position_verdict_matches_full_expansion():
    # two entrywise products with equal positive masses at each position
    # are equal exactly when their factors are; the cells take True from
    # the factors and expand in full otherwise, so they agree with _same
    verdicts = set()

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(strat.integers(min_value=1, max_value=4),
                      strat.integers(min_value=1, max_value=4),
                      strat.integers(min_value=1, max_value=5), strat.data())
    def check(k, l, m, data):
        L = k * l * m
        t = tuple(data.draw(strat.lists(
            strat.integers(min_value=0, max_value=L - 1),
            min_size=1, max_size=3)))
        kl = k * l
        lifts = lambda e: _raw_rho(k, L, _raw_rho(l, L, e))
        sides = [(lifts, other) for other in (
            lambda e: _raw_rho(kl, L, e),
            lambda e: _raw_rho(l, L, _raw_rho(k, L, e)),
            # a negative control: the factors differ on most t
            lambda e: _raw_e(kl, L, e))]
        # both sides of every lemma48 law
        sides += [(lambda e, f=f: f(k, l, L, e), lambda e, g=g: g(k, l, L, e))
                  for _, f, g in birmod.ops._LEMMA48.values()]
        for one, other in sides:
            ok = birmod.ops._by_position({}, t, one, other)
            lhs, rhs = one({t: 1}), other({t: 1})
            assert ok == (lhs == rhs)
            assert (ok or _same(lhs, rhs)) == _same(lhs, rhs)
            verdicts.add(ok)

    check()
    assert verdicts == {True, False}


def test_holding_product_laws_expand_no_products(monkeypatch):
    # lift_multiplicative and lift_product_hom are decided entry by entry
    # when they hold: no side is concatenated, and no lift reaches more
    # tuples than one lift of a symbol
    sizes = []

    def counting(k, L, sums, raw=birmod.ops._raw_rho):
        out = raw(k, L, sums)
        sizes.append(len(out))
        return out

    def refuse(a, b):
        raise AssertionError("expanded a product in full")

    monkeypatch.setattr(birmod.ops, "_raw_rho", counting)
    monkeypatch.setattr(birmod.ops, "_concat", refuse)
    for suite, max_n, max_N, ks in (("lemma48", 3, 5, (2, 3)),
                                    ("ringhom", 2, 4, (2, 3))):
        sizes.clear()
        assert check_laws(suite, max_n, max_N, ks).failures_total == 0
        assert sizes and max(sizes) <= max(ks) ** max_n


def test_position_mismatch_falls_back_to_full_expansion(monkeypatch):
    grids = (("lemma48", 2, 6, (2, 3)), ("ringhom", 1, 4, (2, 3)))
    default = [json.dumps(check_laws(*g).to_json()) for g in grids]
    concats = []

    def counting(a, b, raw=birmod.ops._concat):
        concats.append(1)
        return raw(a, b)

    monkeypatch.setattr(birmod.ops, "_by_position", lambda *a: False)
    monkeypatch.setattr(birmod.ops, "_concat", counting)
    assert [json.dumps(check_laws(*g).to_json()) for g in grids] == default
    assert concats


def test_passing_law_checks_build_no_samples(monkeypatch):
    # a ringhom sample names both symbols; none is written when all hold
    def refuse(i, L):
        raise AssertionError("built a sample for a passing check")
    monkeypatch.setattr(birmod.ops, "_entry", refuse)
    rep = check_laws("ringhom", 1, 3, (2,))
    assert rep.failures_total == 0 and rep.laws[0].checked == 9


def test_delta_sum_bookkeeping():
    d = DeltaSum()
    d.add((1, 1), S("1/2"), S("1/3"), 2)
    d.add((1, 1), S("1/2"), S("1/3"), -2)
    assert d.is_zero()
    d.add((1, 1), S("1/2"), S("1/3"), 1)
    assert d.to_json() == [{"split": [1, 1], "left": ["1/2"],
                            "right": ["1/3"], "c": "1"}]
