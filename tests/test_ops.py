"""Scaling, lift, torsion-shift, product and coproduct operators plus the
law-verification drivers."""

from fractions import Fraction
from itertools import product

import hypothesis
import hypothesis.strategies as strat
import pytest

from birmod import (DeltaSum, FormalSum, QZ, canonicalize, check_laws,
                    delta_op, descent_failures, e_op, enumerate_symbols,
                    nabla_op, preimages, rho_hat_op, rho_op, sigma_op,
                    split_by_modulus, torsion)


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
    with pytest.raises(ValueError):
        delta_op(one("1/6", "1/3"), N=3)


def test_delta_map_sigma_coprime_example():
    x = one("1/6", "1/3")
    assert delta_op(x, 6).map_sigma(5) == delta_op(sigma_op(5, x), 6)


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
                  for sx, cx in x.terms.items()
                  for sy, cy in y.terms.items()
                  for lift in product(*[preimages(a, ell) for a in sx]))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(int_sums(), ops_k)
def test_unary_ops_match_qz_reference(x, k):
    terms = list(x.terms.items())
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


def test_report_json_shape():
    rep = check_laws("lemma48", 1, 3, (2,))
    doc = rep.to_json()
    assert doc["suite"] == "lemma48"
    assert doc["failures_total"] == 0
    assert {"law", "checked", "failures", "samples"} <= set(doc["laws"][0])
    assert doc["grid"] == {"max_n": 1, "max_N": 3, "ks": [2]}


def test_descent_small_cases():
    assert descent_failures(2, 4, False, (2, 3)) == []
    assert descent_failures(2, 4, True, (2, 3)) == []


def test_delta_sum_bookkeeping():
    d = DeltaSum()
    d.add((1, 1), S("1/2"), S("1/3"), 2)
    d.add((1, 1), S("1/2"), S("1/3"), -2)
    assert d.is_zero()
    d.add((1, 1), S("1/2"), S("1/3"), 1)
    assert d.to_json() == [{"split": [1, 1], "left": ["1/2"],
                            "right": ["1/3"], "c": "1"}]
