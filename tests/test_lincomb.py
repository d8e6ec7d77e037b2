"""The shared algebra of formal sums, the group ring and boundary classes."""

from collections import Counter
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from birmod import (BurnElem, BurnGen, FormalSum, GroupRingElem, QZ,
                    canonicalize)
from birmod.lincomb import _collect


def qz_values(max_den=8):
    return strat.integers(min_value=2, max_value=max_den).flatmap(
        lambda q: strat.integers(min_value=1, max_value=q - 1).map(
            lambda p: QZ(p, q)))


ints = strat.integers(min_value=-3, max_value=3)
fractions = strat.builds(Fraction, ints, strat.integers(min_value=1,
                                                        max_value=4))
# one arity per example, so that the keys of a sum agree; entries take
# 0, so zero entries and the all-zero symbol <0> (modulus 1) occur
arity = strat.shared(strat.integers(min_value=1, max_value=3), key="arity")
entries = strat.integers(min_value=1, max_value=8).flatmap(
    lambda q: strat.integers(min_value=0, max_value=q - 1).map(
        lambda p: QZ(p, q)))
symbols = arity.flatmap(
    lambda n: strat.lists(entries, min_size=n, max_size=n)).map(canonicalize)
gens = strat.builds(BurnGen, strat.sampled_from(["D", "E", "pt"]),
                    strat.integers(min_value=0, max_value=2),
                    strat.sampled_from(["X", "Y"]),
                    strat.integers(min_value=0, max_value=3))

# (name, key strategy, coefficient strategy, builder from pairs)
KINDS = [
    ("formal-int", symbols, ints, FormalSum),
    ("formal-rational", symbols, fractions,
     lambda pairs: FormalSum(pairs, rational=True)),
    ("group-ring", qz_values(), ints, GroupRingElem),
    ("burnside", gens, ints, BurnElem),
]
ZEROS = [FormalSum(), GroupRingElem(), BurnElem()]


@pytest.mark.parametrize("keys, coeffs, build", [k[1:] for k in KINDS],
                         ids=[k[0] for k in KINDS])
@hypothesis.given(data=strat.data())
def test_shared_algebra(keys, coeffs, build, data):
    pairs = strat.lists(strat.tuples(keys, coeffs), max_size=6)
    p, q = data.draw(pairs), data.draw(pairs)
    x, y = build(p), build(q)
    assert (x + y) - y == x
    assert (x + -x).is_zero() and not (x + -x)
    assert x.scale(2) == x + x == 2 * x
    assert build(p + q) == x + y == y + x
    assert hash(build(q + p)) == hash(x + y)
    assert hash(build(p[::-1])) == hash(x)
    for zero in ZEROS:
        if type(zero) is not type(x):
            assert x - x != zero and zero != x - x
            assert x != zero and zero != x
            with pytest.raises(TypeError):
                x + zero
            with pytest.raises(TypeError):
                zero - x


# two spellings of one generator, another generator, and plain keys
SPELLINGS = [BurnGen("P", 1, "X", 2), BurnGen("P x A^1", 0, "X", 2),
             BurnGen("P", 1, "Y", 2), "a", 1]


@hypothesis.given(pairs=strat.lists(strat.tuples(
    strat.sampled_from(SPELLINGS), strat.one_of(ints, fractions))))
def test_collect_matches_a_counter(pairs):
    """Equal keys add, zero sums drop out, and each key keeps its first
    occurrence: its place in the order and the object itself."""
    total = Counter()
    for k, c in pairs:
        total[k] += c
    expected = [(k, c) for k, c in total.items() if c]
    got = list(_collect(pairs).items())
    assert got == expected
    assert all(k is e for (k, _), (e, _) in zip(got, expected))
