"""Pair-sequence index diagrams and finite category presentations."""

import hypothesis
import hypothesis.strategies as strat
import pytest

from birmod import (CatPresentation, Diagram, Morphism,
                    build_equivariant_diagram, build_pairs_diagram,
                    check_poset_in_groupoids, quotient_T)
from conftest import chain_category, group_category, parallel_category


def ladder_data(**extra):
    data = {"ladders": [["X", "Y", "Z"]], "i_range": [0, 1]}
    data.update(extra)
    return data


def test_empty_diagram_dot():
    assert Diagram().export_dot() == "digraph { }"


def test_pairs_diagram_from_ladder():
    dia = build_pairs_diagram(ladder_data())
    # two pairs (X,Y) and (Y,Z), two degrees
    assert dia.vertex_count() == 4
    bnd = dia.edges_of_kind("boundary")
    assert len(bnd) == 1
    assert bnd[0].src == ("Y", "Z", 0) and bnd[0].dst == ("X", "Y", 1)
    dot = dia.export_dot()
    assert '"Y,Z,0" -> "X,Y,1" [label="boundary"];' in dot
    assert dot.startswith("digraph {") and dot.endswith("}")


def test_pairs_diagram_fstar_shifts():
    data = {"morphisms": [{"from": ["X", "Y"], "to": ["U", "V"]}],
            "i_range": [0, 1]}
    shifted = build_pairs_diagram(data)
    assert shifted.edges_of_kind("fstar") == [
        shifted.edges_of_kind("fstar")[0]]
    e = shifted.edges_of_kind("fstar")[0]
    assert e.src == ("X", "Y", 0) and e.dst == ("U", "V", 1)
    flat = build_pairs_diagram({**data, "fstar_shift": 0})
    assert {(e.src[2], e.dst[2]) for e in flat.edges_of_kind("fstar")} == \
        {(0, 0), (1, 1)}
    with pytest.raises(ValueError):
        build_pairs_diagram({**data, "fstar_shift": 2})


def test_pairs_diagram_input_guards():
    with pytest.raises(ValueError):
        build_pairs_diagram({"pairs": []})
    with pytest.raises(ValueError):
        build_pairs_diagram({"ladders": [["X", "Y"]]})
    with pytest.raises(ValueError):
        build_pairs_diagram(ladder_data(varieties=["X", "Y"]))
    # declaring the full universe is fine
    build_pairs_diagram(ladder_data(varieties=["X", "Y", "Z"]))


@hypothesis.given(strat.lists(
    strat.tuples(strat.sampled_from("ABCDEF"), strat.sampled_from("ABCDEF")),
    min_size=1, max_size=8),
    strat.integers(min_value=1, max_value=4))
def test_pairs_vertex_count(raw_pairs, width):
    data = {"pairs": [list(p) for p in raw_pairs],
            "i_range": list(range(width))}
    dia = build_pairs_diagram(data)
    distinct = {tuple(p) for p in raw_pairs}
    assert dia.vertex_count() == len(distinct) * width


def test_equivariant_edge_shifts():
    data = {"ladders": [["X", "Y", "Z"]],
            "morphisms": [{"from": ["X", "Y"], "to": ["Y", "Z"]}],
            "twists": [["X", "Y"]],
            "i_range": [0, 1], "w_range": [0, 1]}
    dia = build_equivariant_diagram(data)
    shifts = {"pullback": (0, 0), "boundary": (1, 0), "twist": (2, 1)}
    assert {e.kind for e in dia.edges} == set(shifts)
    for e in dia.edges:
        di = e.dst[2] - e.src[2]
        dw = e.dst[3] - e.src[3]
        assert (di, dw) == shifts[e.kind], e
    tw = dia.edges_of_kind("twist")[0]
    assert tw.dst[0] == "X x P1" and tw.dst[1] == "Y x P1 + X x 0"


def test_equivariant_pullback_is_contravariant():
    data = {"morphisms": [{"from": ["X", "Y"], "to": ["U", "V"]}]}
    dia = build_equivariant_diagram(data)
    e = dia.edges_of_kind("pullback")[0]
    assert e.src == ("U", "V", 0, 0) and e.dst == ("X", "Y", 0, 0)


def test_presentation_guards():
    with pytest.raises(ValueError):
        # no designated identity for y
        CatPresentation(["x", "y"],
                        [Morphism("ix", "x", "x", True)], [], {"x": "ix"})
    with pytest.raises(ValueError):
        # identity must be invertible
        CatPresentation(["x"], [Morphism("ix", "x", "x", False)], [],
                        {"x": "ix"})
    base = [Morphism("ix", "x", "x", True), Morphism("iy", "y", "y", True),
            Morphism("f", "x", "y"), Morphism("g", "x", "y")]
    with pytest.raises(ValueError):
        # unit row of the table must fix f
        CatPresentation(["x", "y"], base, [("ix", "f", "g")],
                        {"x": "ix", "y": "iy"})
    with pytest.raises(ValueError):
        CatPresentation(["x", "y"], base, [("f", "f", "f")],
                        {"x": "ix", "y": "iy"})


def test_presentation_rejects_broken_associativity():
    ms = [Morphism("io", "o", "o", True)] + \
        [Morphism(n, "o", "o") for n in "abpq"]
    with pytest.raises(ValueError):
        CatPresentation(["o"], ms,
                        [("a", "a", "b"), ("b", "a", "p"), ("a", "b", "q")],
                        {"o": "io"})


def test_group_category_passes():
    res = check_poset_in_groupoids(group_category())
    assert res.ok and res.classes == [["o"]]
    assert not res.thin  # two endomorphisms


def test_chain_category_passes_and_quotients_to_hasse():
    cat = chain_category()
    res = check_poset_in_groupoids(cat)
    assert res.ok and res.thin
    q = quotient_T(cat)
    assert q.classes == [["x"], ["y"], ["z"]]
    by_pair = {(e["src"], e["dst"]): e for e in q.edges}
    assert set(by_pair) == {("x", "y"), ("y", "z"), ("x", "z")}
    assert not by_pair[("x", "y")]["decomposable"]
    assert not by_pair[("y", "z")]["decomposable"]
    assert by_pair[("x", "z")]["decomposable"]
    assert by_pair[("x", "z")]["via"] == ["y"]
    assert q.longest_paths == {"x": 2, "y": 1, "z": 0}
    assert q.top_classes == ["x"] and q.unique_top and not q.has_cycle


def test_parallel_arrows_fail_with_witness():
    res = check_poset_in_groupoids(parallel_category())
    assert not res.ok
    assert res.orbit_witnesses == [("f", "g")]
    assert not res.not_invertible


def test_noninvertible_endo_fails():
    ms = [Morphism("ix", "x", "x", True), Morphism("m", "x", "x"),
          Morphism("iy", "y", "y", True), Morphism("u", "x", "y", True)]
    cat = CatPresentation(["x", "y"], ms, [], {"x": "ix", "y": "iy"})
    res = check_poset_in_groupoids(cat)
    assert not res.ok and res.not_invertible == ["m"]
    assert cat.iso_classes() == [["x", "y"]]


def test_orbit_closure_through_composition():
    # an invertible endo that swaps the two parallel arrows restores (b)
    ms = [Morphism("ix", "x", "x", True), Morphism("iy", "y", "y", True),
          Morphism("s", "x", "x", True), Morphism("f", "x", "y"),
          Morphism("g", "x", "y")]
    compose = [("s", "s", "ix"), ("s", "f", "g"), ("s", "g", "f")]
    cat = CatPresentation(["x", "y"], ms, compose, {"x": "ix", "y": "iy"})
    res = check_poset_in_groupoids(cat)
    assert res.ok and not res.thin


def test_quotient_cycle_detection():
    ms = [Morphism("ix", "x", "x", True), Morphism("iy", "y", "y", True),
          Morphism("f", "x", "y"), Morphism("g", "y", "x")]
    cat = CatPresentation(["x", "y"], ms, [], {"x": "ix", "y": "iy"})
    q = quotient_T(cat)
    assert q.has_cycle
    assert not q.unique_top  # both classes sit at the degenerate peak


def test_quotient_of_a_long_chain():
    # deeper than the default recursion limit
    names = ["c%04d" % i for i in range(1200)]
    ms = [Morphism("id_" + o, o, o, True) for o in names]
    ms += [Morphism("f%04d" % i, names[i], names[i + 1])
           for i in range(len(names) - 1)]
    cat = CatPresentation(names, ms, [], {o: "id_" + o for o in names})
    q = quotient_T(cat)
    assert q.top_classes == ["c0000"] and q.unique_top
    assert q.longest_paths["c0000"] == 1199 and not q.has_cycle
    assert len(q.edges) == 1199


def test_quotient_to_diagram():
    dia = quotient_T(chain_category()).to_diagram()
    assert dia.vertex_count() == 3 and dia.edge_count() == 3
    assert all(e.kind == "orbit" for e in dia.edges)
