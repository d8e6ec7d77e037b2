"""Arithmetic in Q/Z: representatives, group law, preimages, torsion."""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from birmod import QZ, preimages, qz, torsion


def qz_elems(max_den=60):
    return strat.integers(min_value=1, max_value=max_den).flatmap(
        lambda q: strat.integers(min_value=-3 * q, max_value=3 * q).map(
            lambda p: QZ(p, q)))


small_k = strat.integers(min_value=1, max_value=12)


def test_representative_range():
    assert QZ(7, 3) == QZ(1, 3)
    assert QZ(-1, 3) == QZ(2, 3)
    assert QZ(4, 2) == QZ(0)
    assert str(QZ(0)) == "0"
    assert str(QZ(2, 6)) == "1/3"


def test_parse_round_trip():
    assert qz("5/6") == QZ(5, 6)
    assert qz("0") == QZ(0)
    assert qz("7/3") == QZ(1, 3)


def test_order_is_reduced_denominator():
    assert QZ(0).order == 1
    assert QZ(1, 2).order == 2
    assert QZ(2, 6).order == 3
    assert QZ(5, 6).order == 6


def test_group_law_examples():
    assert QZ(1, 2) + QZ(2, 3) == QZ(1, 6)
    assert QZ(1, 3) - QZ(1, 2) == QZ(5, 6)
    # a plain left operand wraps too, and the difference stays a QZ
    assert type(0 - QZ(1, 3)) is QZ and 0 - QZ(1, 3) == QZ(2, 3)
    assert type(Fraction(1, 2) - QZ(1, 3)) is QZ
    assert Fraction(1, 2) - QZ(1, 3) == QZ(1, 6)
    assert Fraction(1, 4) - QZ(1, 2) == QZ(3, 4)
    assert -QZ(1, 3) == QZ(2, 3)
    assert -QZ(0) == QZ(0)
    assert 3 * QZ(1, 6) == QZ(1, 2)
    assert 2 * QZ(1, 2) == QZ(0)


def test_floats_are_refused():
    with pytest.raises(TypeError):
        QZ(0.5)
    with pytest.raises(TypeError):
        QZ(1, 2.0)
    with pytest.raises(TypeError):
        QZ(1, 3) + 0.1
    with pytest.raises(TypeError):
        0.1 + QZ(1, 3)
    with pytest.raises(TypeError):
        QZ(1, 3) - 0.1
    with pytest.raises(TypeError):
        0.1 - QZ(1, 3)
    with pytest.raises(TypeError):
        QZ(1, 3) * 0.5


def test_preimages_examples():
    assert preimages(QZ(1, 3), 2) == (QZ(1, 6), QZ(2, 3))
    assert preimages(QZ(0), 3) == (QZ(0), QZ(1, 3), QZ(2, 3))
    assert preimages(QZ(1, 2), 1) == (QZ(1, 2),)


def test_torsion_examples():
    assert torsion(1) == (QZ(0),)
    assert torsion(4) == (QZ(0), QZ(1, 4), QZ(1, 2), QZ(3, 4))


def test_bad_multipliers_rejected():
    with pytest.raises(ValueError):
        preimages(QZ(1, 2), 0)
    with pytest.raises(ValueError):
        torsion(-1)


@hypothesis.given(qz_elems())
def test_representative_always_in_unit_interval(a):
    assert 0 <= a < 1
    assert Fraction(a).denominator == a.order


@hypothesis.given(qz_elems(), qz_elems())
def test_addition_commutes_and_inverts(a, b):
    assert a + b == b + a
    assert (a + b) - b == a
    assert a + (-a) == QZ(0)


@hypothesis.given(qz_elems(), qz_elems(), qz_elems())
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@hypothesis.given(qz_elems(), small_k)
def test_preimages_section_property(a, k):
    pre = preimages(a, k)
    assert len(pre) == len(set(pre)) == k
    assert list(pre) == sorted(pre)
    for b in pre:
        assert k * b == a


@hypothesis.given(small_k)
def test_torsion_is_kernel_of_multiplication(k):
    tor = torsion(k)
    assert len(tor) == k
    assert all(k * t == QZ(0) for t in tor)
    assert tor == preimages(QZ(0), k)


@hypothesis.given(qz_elems(), small_k)
def test_preimages_are_torsion_translates(a, k):
    pre = preimages(a, k)
    base = pre[0]
    assert set(pre) == {base + t for t in torsion(k)}


@hypothesis.given(strat.integers(min_value=-10 ** 6, max_value=10 ** 6),
                  strat.integers(min_value=-500, max_value=500).filter(bool))
def test_construction_reduces_mod_one(a, b):
    # a negative denominator, and any numerator, land in [0, 1) once
    text = "%d/%d" % (a if b > 0 else -a, abs(b))
    for got in (QZ(a, b), QZ(Fraction(a, b)), QZ(text)):
        assert type(got) is QZ
        assert got == Fraction(a, b) % 1
        assert 0 <= got.numerator < got.denominator
