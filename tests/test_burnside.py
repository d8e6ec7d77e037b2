"""Boundary calculus on normal-crossings models, rewriting, pushforward,
cyclic actions and tower checks."""

from random import Random

import pytest

from birmod import (BurnElem, BurnGen, CyclicAction, Model, RewriteRules,
                    Stratum, boundary_snc, check_grading, model_from_json,
                    parse_composite, pushforward, tower_boundary_check)
from conftest import random_snc_model


def two_component_model():
    return Model(2, ["E1", "E2"], {frozenset([1, 2]): Stratum("C", 0)},
                 name="X")


def test_parse_composite():
    assert parse_composite("E") == ("E", 0)
    assert parse_composite("E x A^2") == ("E", 2)
    assert parse_composite("E x A^1 x A^1") == ("E", 2)
    assert parse_composite("pt x A^3") == ("pt", 3)


def test_generator_composite_and_equality():
    g = BurnGen("C", 2, "X", 1)
    assert g.composite == "C x A^2"
    assert g == BurnGen("C", 2, "X", 1)
    assert g != BurnGen("C", 1, "X", 1)
    assert BurnGen("E", 0, "X", 1).composite == "E"
    # the composite is compared as spelled, never normalized
    assert BurnGen("E x A^1", 1, "X", 2) != BurnGen("E", 2, "X", 2)
    assert hash(BurnGen("P", 1, "X", 2)) == hash(BurnGen("P x A^1", 0, "X", 2))
    assert repr(BurnGen("E", 1, "X", 2)) == \
        "BurnGen(source='E', affine=1, target='X', dim=2)"


def test_elem_from_pairs_adds_equal_generators():
    g, h = BurnGen("P", 1, "X", 2), BurnGen("P x A^1", 0, "X", 2)
    assert g == h
    elem = BurnElem([(g, 1), (h, 1)])
    assert elem.terms == {g: 2}
    assert BurnElem([(g, 1), (h, -1)]).is_zero()
    assert BurnElem([(g, 1), (BurnGen("Q", 0, "X", 2), 0)]) == BurnElem.of(g)


def test_model_guards():
    with pytest.raises(ValueError):
        Model(2, ["E", "E"], {})
    with pytest.raises(ValueError):
        Model(2, ["E"], {frozenset([2]): Stratum("bad", 1)})
    with pytest.raises(ValueError):
        # depth-2 stratum must have dimension 0 in a surface
        Model(2, ["E1", "E2"], {frozenset([1, 2]): Stratum("C", 1)})


def test_model_refuses_a_negative_dimension():
    with pytest.raises(ValueError):
        Model(-1, ["E"], {})


def test_model_leaves_the_given_strata_alone():
    # the component strata were once added to the caller's dict, so a
    # second model built from it printed the first model's labels
    strata = {frozenset([1, 2]): Stratum("P", 0)}
    Model(2, ["A", "B"], strata, name="Y")
    assert list(strata) == [frozenset([1, 2])]
    second = Model(2, ["C", "D"], strata, name="Y")
    assert repr(boundary_snc(second)) == \
        "+1 [C -> Y] +1 [D -> Y] -1 [P x A^1 -> Y]"


def test_boundary_of_two_component_surface():
    bd = boundary_snc(two_component_model())
    assert bd == BurnElem({BurnGen("E1", 0, "X", 1): 1,
                           BurnGen("E2", 0, "X", 1): 1,
                           BurnGen("C", 1, "X", 1): -1})
    assert repr(bd) == "-1 [C x A^1 -> X] +1 [E1 -> X] +1 [E2 -> X]"
    assert check_grading(bd, 1) == []
    assert check_grading(bd, 2) == [g for g, _ in bd.items()]


def test_model_json_and_boundary_target():
    m = model_from_json({"dim": 2, "labels": ["Zt", "E"],
                         "strata": {"1,2": {"name": "pt", "dim": 0}},
                         "name": "Xp", "boundary": "Zp"})
    bd = boundary_snc(m)
    assert all(g.target == "Zp" for g, _ in bd.items())
    assert boundary_snc(m, target="W").items()[0][0].target == "W"


def test_random_models_grade_in_codimension_one():
    rng = Random(11)
    for _ in range(60):
        m = random_snc_model(rng)
        assert check_grading(boundary_snc(m), m.dim - 1) == []


def test_removing_a_deep_stratum_removes_its_term():
    rng = Random(23)
    seen = 0
    while seen < 25:
        m = random_snc_model(rng)
        deep = [k for k in m.strata if len(k) >= 2]
        if not deep:
            continue
        seen += 1
        key = sorted(deep, key=sorted)[0]
        st = m.strata[key]
        smaller = Model(m.dim, list(m.labels),
                        {k: v for k, v in m.strata.items()
                         if len(k) >= 2 and k != key}, name=m.name)
        t = len(key)
        sign = 1 if t % 2 else -1
        term = BurnElem({BurnGen(st.name, t - 1, m.name, st.dim + t - 1): sign})
        assert boundary_snc(m) - term == boundary_snc(smaller)


def test_rewrite_rules():
    rules = RewriteRules([("Zt", "Z"), ("E", "line/pt"),
                          ("line/pt", "pt x A^1")])
    assert rules.apply("Zt") == "Z"
    assert rules.apply("E") == "pt x A^1"
    assert rules.apply("untouched") == "untouched"
    g = rules.apply_gen(BurnGen("E", 1, "Zt", 1))
    assert g == BurnGen("pt", 2, "Z", 1)
    with pytest.raises(ValueError):
        RewriteRules([("a", "b"), ("a", "c")])
    with pytest.raises(ValueError):
        RewriteRules([("a", "b"), ("b", "a")])


def test_blowup_pushforward_collapses_to_plain_boundary():
    # blow a point out of a surface: exceptional line rewrites to a point
    # with an affine factor and cancels the deep stratum term
    xp = model_from_json({"dim": 2, "labels": ["Zt", "E"],
                          "strata": {"1,2": {"name": "pt", "dim": 0}},
                          "name": "Xp", "boundary": "Zp"})
    rules = RewriteRules([("Zt", "Z"), ("E", "line/pt"),
                          ("line/pt", "pt x A^1")])
    pushed = pushforward(boundary_snc(xp), {"Zp": "Z"}, rules)
    assert pushed == BurnElem({BurnGen("Z", 0, "Z", 1): 1})


def test_pushforward_requires_full_cover():
    bd = boundary_snc(two_component_model())
    with pytest.raises(ValueError):
        pushforward(bd, {"Y": "Z"})


def test_cyclic_action_guards():
    with pytest.raises(ValueError):
        CyclicAction(2, {"a": "b"})
    with pytest.raises(ValueError):
        # 3-cycle does not divide level 2
        CyclicAction(2, {"a": "b", "b": "c", "c": "a"})
    CyclicAction(6, {"a": "b", "b": "c", "c": "a"})


def test_cyclic_action_refuses_bad_levels_twists_and_copies():
    for level in (0, -2, "2"):
        with pytest.raises(ValueError):
            CyclicAction(level, {"a": "a"})
    a = CyclicAction(2, {"a": "b", "b": "a"})
    for n in (0, -1, 1.0):
        with pytest.raises(ValueError):
            a.twist(n)
        with pytest.raises(ValueError):
            a.versch(n)


def cycle_action(M):
    labels = ["c%d" % i for i in range(M)]
    return CyclicAction(M, {labels[i]: labels[(i + 1) % M]
                            for i in range(M)})


def test_twist_and_versch():
    a = cycle_action(6)
    assert a.order() == 6
    assert a.twist(2).order() == 3
    assert a.twist(2).twist(3) == a.twist(6)
    assert a.versch(1) == a
    v = a.versch(2)
    assert v.level == 12
    assert v.order() == 12
    assert 12 % v.order() == 0


def test_versch_of_trivial_action():
    triv = CyclicAction(1, {"x": "x"})
    assert triv.order() == 1
    assert triv.versch(3).order() == 3


def test_action_on_boundary_classes():
    a = CyclicAction(2, {"E1": "E2", "E2": "E1", "X": "X", "C": "C"})
    bd = boundary_snc(two_component_model())
    assert a.act(bd) == bd  # swapping the two components fixes the class
    b = CyclicAction(2, {"E1": "F1", "F1": "E1", "E2": "E2",
                         "X": "X", "C": "C"})
    moved = b.act(bd)
    assert BurnGen("F1", 0, "X", 1) in moved.terms


def test_tower_boundary_check():
    big = model_from_json({"dim": 2, "labels": ["Y"], "strata": {},
                           "name": "X", "boundary": "Y"})
    small = model_from_json({"dim": 1, "labels": ["p"], "strata": {},
                             "name": "Y", "boundary": "Z"})
    res = tower_boundary_check(big, small,
                               {"Y": BurnGen("p", 0, "Z", 0)})
    assert res.ok and not res.unmapped
    assert res.transported == res.expected

    missing = tower_boundary_check(big, small, {})
    assert not missing.ok and missing.unmapped == ["Y"]

    dropped = tower_boundary_check(big, small, {"Y": None})
    assert not dropped.ok  # the expected boundary of Y is nonzero

    with pytest.raises(ValueError):
        tower_boundary_check(big, big, {})


def test_tower_boundary_check_with_rules_and_class_images():
    # the big model's component "Yt" rewrites to "Y", whose boundary edge
    # is sent to a class, and the small model's target "Zt" to "Z"
    big = model_from_json({"dim": 2, "labels": ["Yt"], "strata": {},
                           "name": "X", "boundary": "Y"})
    small = model_from_json({"dim": 1, "labels": ["p"], "strata": {},
                             "name": "Y", "boundary": "Zt"})
    rules = RewriteRules([("Yt", "Y"), ("Zt", "Z")])
    p = BurnGen("p", 0, "Z", 0)
    res = tower_boundary_check(big, small, {"Y": BurnElem.of(p)}, rules)
    assert res.ok and not res.unmapped
    assert res.transported == res.expected == BurnElem.of(p)
    # without the rules the component keeps its own label
    res = tower_boundary_check(big, small, {"Y": BurnElem.of(p)})
    assert not res.ok and res.unmapped == ["Yt"]
    # a class image is scaled by the boundary coefficient
    res = tower_boundary_check(big, small, {"Y": 2 * BurnElem.of(p)}, rules)
    assert not res.ok and res.transported == BurnElem([(p, 2)])
