"""The small record types of the three layers: what their callers rely on."""

import pytest

from birmod import BurnElem, DeltaSum, Model, Morphism, Stratum, TowerResult
from birmod.diagram import Edge
from birmod.ops import LawCheck


def test_edges_order_hash_and_stay_fixed():
    a = Edge(("X", "Y", 0), ("X", "Y", 1), "fstar")
    b = Edge(("X", "Y", 0), ("X", "Y", 1), "boundary")
    c = Edge(("U", "V", 2), ("X", "Y", 0), "twist")
    # ordered by (src, dst, kind), as the sorted dot and JSON output read
    assert sorted([a, b, c]) == [c, b, a]
    assert b < a and c < b and not a < a
    assert a == Edge(("X", "Y", 0), ("X", "Y", 1), "fstar") and a != b
    assert len({a, b, c, Edge(a.src, a.dst, a.kind)}) == 3
    assert (a.src, a.dst, a.kind) == (("X", "Y", 0), ("X", "Y", 1), "fstar")
    with pytest.raises(AttributeError):
        a.kind = "twist"
    assert a.kind == "fstar"


def test_morphisms_default_to_not_invertible_and_hash():
    f = Morphism("f", "x", "y")
    assert f.invertible is False
    assert Morphism(name="f", src="x", dst="y", invertible=True).invertible
    assert f == Morphism("f", "x", "y", False)
    assert f != Morphism("f", "x", "y", True)
    assert len({f, Morphism("f", "x", "y"), Morphism("g", "x", "y")}) == 2
    with pytest.raises(AttributeError):
        f.invertible = True


def test_strata_and_coproduct_sums_compare_by_value():
    assert Stratum("C", 0) == Stratum("C", 0)
    assert Stratum("C", 0) != Stratum("C", 1)
    assert Stratum("C", 0) != Stratum("D", 0)
    assert DeltaSum() == DeltaSum()
    d, e = DeltaSum(), DeltaSum()
    d.add((1, 1), "l", "r", 2)
    assert d != e
    e.add((1, 1), "l", "r", 2)
    assert d == e and d.buckets == {(1, 1): {("l", "r"): 2}}


def test_model_by_keyword_leaves_the_callers_strata_alone():
    strata = {frozenset([1, 2]): Stratum("P", 0)}
    m = Model(dim=2, labels=["A", "B"], strata=strata, name="Y")
    assert list(strata) == [frozenset([1, 2])]
    assert (m.dim, m.labels, m.name, m.boundary_target) == \
        (2, ["A", "B"], "Y", "Y")
    assert m.strata[frozenset([1])] == Stratum("A", 1)
    assert len(m.strata) == 3
    assert Model(1, ["E"], {}, boundary_target="Z").boundary_target == "Z"


def test_mutable_defaults_are_fresh_for_each_record():
    a, b = LawCheck("x"), LawCheck("x")
    assert (a.law, a.checked, a.failures, a.samples) == ("x", 0, 0, [])
    a.record(False, lambda: "s")
    assert (a.checked, a.failures, a.samples) == (1, 1, ["s"])
    assert (b.checked, b.failures, b.samples) == (0, 0, [])
    zero = BurnElem([])
    r, s = TowerResult(True, zero, zero), TowerResult(True, zero, zero)
    r.unmapped.append("Y")
    assert s.unmapped == []
    d, e = DeltaSum(), DeltaSum()
    d.add((1, 1), "l", "r", 1)
    assert e.buckets == {} and d.buckets is not e.buckets
