"""Group-ring model of the operators and the bridge from arity-1 sums."""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from birmod import (FormalSum, GroupRingElem, QZ, canonicalize, gr_rho,
                    gr_sigma, bridge, rho_op, sigma_op, torsion)


def E(p, q=1):
    return GroupRingElem.of(QZ(p, q))


def qz_entries(max_den=12):
    return strat.integers(min_value=1, max_value=max_den).flatmap(
        lambda q: strat.integers(min_value=0, max_value=q - 1).map(
            lambda p: QZ(p, q)))


small_k = strat.integers(min_value=2, max_value=6)


def test_examples():
    assert gr_sigma(2, E(1, 2)) == E(0)
    assert gr_sigma(3, E(1, 5)) == E(3, 5)
    assert gr_rho(2, E(1, 3)) == E(1, 6) + E(2, 3)
    assert gr_sigma(2, gr_rho(2, E(1, 5))) == 2 * E(1, 5)


def test_elem_algebra_and_json():
    x = 2 * E(1, 3) - E(1, 2)
    assert x.items() == [(QZ(1, 3), 2), (QZ(1, 2), -1)]
    assert GroupRingElem.from_json(x.to_json()) == x
    assert (x - x).is_zero() and not (x - x)
    with pytest.raises(ValueError):
        GroupRingElem({QZ(1, 2): "one"})


def test_elem_refuses_keys_that_are_not_qz():
    for key in (Fraction(1, 2), 1, "1/2"):
        with pytest.raises(ValueError):
            GroupRingElem({key: 1})


@pytest.mark.parametrize("term", [{"e": 0.1, "c": 2}, {"e": "1/2", "c": 2.7},
                                  {"e": "1/2", "c": True},
                                  {"e": False, "c": 1}, {"e": "1/2", "c": "2"},
                                  {"e": "1/0", "c": 1}, {"e": "1e9", "c": 1}])
def test_elem_from_json_refuses_floats_bools_and_strings(term):
    with pytest.raises(ValueError):
        GroupRingElem.from_json([term])


def test_elem_from_json_reads_ints_and_fractions():
    assert GroupRingElem.from_json([{"e": 3, "c": 2}, {"e": "7/4", "c": -1}]) \
        == 2 * E(0) - E(3, 4)


def test_elem_from_pairs_adds_like_terms():
    assert GroupRingElem([(QZ(1, 2), 1), (QZ(1, 2), -1)]).is_zero()
    assert GroupRingElem([(QZ(1, 3), 1), (QZ(1, 2), 0), (QZ(1, 3), 2)]) \
        == 3 * E(1, 3)
    with pytest.raises(ValueError):
        GroupRingElem([(QZ(1, 2), 1), (QZ(1, 2), "one")])


@hypothesis.given(qz_entries(), small_k)
def test_scale_after_lift_is_multiplication_by_k(r, k):
    x = GroupRingElem.of(r)
    assert gr_sigma(k, gr_rho(k, x)) == k * x


@hypothesis.given(qz_entries(), small_k)
def test_lift_after_scale_is_torsion_shift(r, k):
    x = GroupRingElem.of(r)
    shifted = GroupRingElem({r + t: 1 for t in torsion(k)})
    assert gr_rho(k, gr_sigma(k, x)) == shifted


@hypothesis.given(qz_entries(), small_k, small_k)
def test_gr_operators_multiplicative(r, k, l):
    x = GroupRingElem.of(r)
    assert gr_sigma(k, gr_sigma(l, x)) == gr_sigma(k * l, x)
    assert gr_rho(k, gr_rho(l, x)) == gr_rho(k * l, x)


def test_bridge_examples_and_guards():
    x = FormalSum.of(canonicalize([QZ(1, 3)]))
    assert bridge(x) == E(1, 3)
    assert bridge(FormalSum()).is_zero()
    with pytest.raises(ValueError):
        bridge(FormalSum.of(canonicalize([QZ(1, 3)]), rational=True))
    with pytest.raises(ValueError):
        bridge(FormalSum.of(canonicalize([QZ(1, 3), QZ(1, 2)])))


@hypothesis.given(qz_entries().filter(lambda r: r.order > 1), small_k)
def test_bridge_intertwines_lift(r, k):
    x = FormalSum.of(canonicalize([r]))
    assert bridge(rho_op(k, x)) == gr_rho(k, bridge(x))


@hypothesis.given(qz_entries().filter(lambda r: r.order > 1), small_k)
def test_bridge_intertwines_scale_off_kernel(r, k):
    x = FormalSum.of(canonicalize([r]))
    sx = sigma_op(k, x)
    hypothesis.assume(not sx.is_zero())
    assert bridge(sx) == gr_sigma(k, bridge(x))


def test_bridge_scale_mismatch_on_kernel():
    # the symbol side projects the annihilated class away, the group ring
    # keeps the class at zero, so the two sides must disagree there
    x = FormalSum.of(canonicalize([QZ(1, 2)]))
    assert bridge(sigma_op(2, x)).is_zero()
    assert gr_sigma(2, bridge(x)) == E(0)
