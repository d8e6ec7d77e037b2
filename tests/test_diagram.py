"""Pair-sequence index diagrams and finite category presentations."""

from math import gcd

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
    with pytest.raises(ValueError,
                       match=r"^associativity breaks on \(a, a, a\)$"):
        CatPresentation(["o"], ms,
                        [("a", "a", "b"), ("b", "a", "p"), ("a", "b", "q")],
                        {"o": "io"})


@hypothesis.given(strat.lists(
    strat.tuples(*[strat.sampled_from("abc")] * 3),
    max_size=8, unique_by=lambda t: t[:2]))
def test_associativity_failure_matches_pairwise_scan(table):
    # the first failing triple is the one a scan of all entry pairs meets
    ms = [Morphism("io", "o", "o", True)] + \
        [Morphism(n, "o", "o") for n in "abc"]
    compose = {(f, g): h for f, g, h in table}
    for n in ("io", "a", "b", "c"):
        compose.setdefault(("io", n), n)
        compose.setdefault((n, "io"), n)
    failures = ["associativity breaks on (%s, %s, %s)" % (f, g, h)
                for (f, g), u in compose.items()
                for (g2, h), v in compose.items()
                if g2 == g and None not in (compose.get((u, h)),
                                            compose.get((f, v)))
                and compose[(u, h)] != compose[(f, v)]]
    if not failures:
        CatPresentation(["o"], ms, table, {"o": "io"})
        return
    with pytest.raises(ValueError) as err:
        CatPresentation(["o"], ms, table, {"o": "io"})
    assert str(err.value) == failures[0]


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
    res = check_poset_in_groupoids(cat)
    assert res.ok and res.thin and res.orbit_witnesses == []
    q = quotient_T(cat)
    assert q.top_classes == ["c0000"] and q.unique_top
    assert q.longest_paths["c0000"] == 1199 and not q.has_cycle
    assert len(q.edges) == 1199


def test_quotient_to_diagram():
    dia = quotient_T(chain_category()).to_diagram()
    assert dia.vertex_count() == 3 and dia.edge_count() == 3
    assert all(e.kind == "orbit" for e in dia.edges)


@strat.composite
def line_categories(draw):
    """Objects on a line, each with a cyclic group of endomorphisms.

    Between neighbours sit parallel arrows that the two groups rotate
    (a step s per generator is compatible with the group law when
    s * order is divisible by the number of arrows), plus optional
    uncomposed shortcut and backward arrows and invertible arrows that
    merge neighbours into one class.  Names and list order are shuffled
    independently, so name order and object order disagree.
    """
    n = draw(strat.integers(min_value=1, max_value=6))
    names = draw(strat.permutations(["o%d" % i for i in range(n)]))
    orders = [draw(strat.integers(min_value=1, max_value=4))
              for _ in range(n)]

    def endo(i, a):
        return "id_" + names[i] if a == 0 else "e%s_%d" % (names[i], a)

    def step(p, order):
        return draw(strat.integers(0, p - 1)) * (p // gcd(p, order)) % p

    ms, comp = [], []
    for i, k in enumerate(orders):
        ms += [Morphism(endo(i, a), names[i], names[i], True)
               for a in range(k)]
        comp += [(endo(i, a), endo(i, b), endo(i, (a + b) % k))
                 for a in range(k) for b in range(k)]
    for i in range(n - 1):
        p = draw(strat.integers(min_value=0, max_value=4))
        arrows = ["f%s_%d" % (names[i], t) for t in range(p)]
        ms += [Morphism(f, names[i], names[i + 1]) for f in arrows]
        if p:
            left, right = step(p, orders[i]), step(p, orders[i + 1])
            for t, f in enumerate(arrows):
                comp += [(endo(i, a), f, arrows[(t + left * a) % p])
                         for a in range(orders[i])]
                comp += [(f, endo(i + 1, a), arrows[(t + right * a) % p])
                         for a in range(orders[i + 1])]
        if draw(strat.booleans()):
            ms.append(Morphism("u" + names[i], names[i], names[i + 1], True))
        if draw(strat.booleans()):
            ms.append(Morphism("b" + names[i], names[i + 1], names[i]))
        if i + 2 < n and draw(strat.booleans()):
            ms.append(Morphism("s" + names[i], names[i], names[i + 2]))
    objects = draw(strat.permutations(names))
    return CatPresentation(objects, draw(strat.permutations(ms)), comp,
                           {x: "id_" + x for x in names})


def brute_force_verdicts(cat):
    """Poset check and quotient by scanning ``cat.morphisms`` directly."""
    def hom(x, y):
        return sorted(m.name for m in cat.morphisms.values()
                      if m.src == x and m.dst == y)

    linked = {x: {x} for x in cat.objects}
    for m in cat.morphisms.values():
        if m.invertible:
            linked[m.src].add(m.dst)
            linked[m.dst].add(m.src)
    component = {}
    for x in cat.objects:
        seen, todo = {x}, [x]
        while todo:
            for y in linked[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
        component[x] = tuple(sorted(seen))
    classes = sorted(set(component.values()))
    of = {x: classes.index(component[x]) for x in cat.objects}
    witnesses = []
    for x in cat.objects:
        for y in cat.objects:
            arrows_xy = hom(x, y)
            if of[x] == of[y] or len(arrows_xy) < 2:
                continue
            orbit, todo = {arrows_xy[0]}, [arrows_xy[0]]
            while todo:
                f = todo.pop()
                moved = {cat.compose.get((e, f)) for e in hom(x, x)}
                moved |= {cat.compose.get((f, e)) for e in hom(y, y)}
                for g in moved - orbit - {None}:
                    orbit.add(g)
                    todo.append(g)
            missing = [g for g in arrows_xy if g not in orbit]
            if missing:
                witnesses.append([arrows_xy[0], missing[0]])
    not_invertible = sorted(m.name for m in cat.morphisms.values()
                            if of[m.src] == of[m.dst] and not m.invertible)
    poset = {"ok": not not_invertible and not witnesses,
             "classes": [list(c) for c in classes],
             "not_invertible": not_invertible, "orbit_witnesses": witnesses,
             "thin": all(len(hom(x, y)) <= 1
                         for x in cat.objects for y in cat.objects)}

    k = len(classes)
    reps = [c[0] for c in classes]
    arrows = sorted({(of[m.src], of[m.dst]) for m in cat.morphisms.values()
                     if of[m.src] != of[m.dst]})
    edges = [{"src": reps[a], "dst": reps[b],
              "via": [reps[c] for c, d in arrows
                      if d == b and (a, c) in arrows]}
             for a, b in arrows]
    for e in edges:
        e["decomposable"] = bool(e["via"])
    reach = [[(a, b) in arrows for b in range(k)] for a in range(k)]
    for c in range(k):
        for a in range(k):
            for b in range(k):
                reach[a][b] = reach[a][b] or (reach[a][c] and reach[c][b])
    has_cycle = any(reach[a][a] for a in range(k))
    longest = [0] * k
    if not has_cycle:
        for _ in range(k):
            for a, b in arrows:
                longest[a] = max(longest[a], 1 + longest[b])
    tops = sorted(reps[u] for u in range(k) if longest[u] == max(longest))
    quotient = {"classes": [list(c) for c in classes], "edges": edges,
                "longest_paths": dict(zip(reps, longest)),
                "top_classes": tops, "unique_top": len(tops) == 1,
                "has_cycle": has_cycle}
    return poset, quotient


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(line_categories())
def test_index_matches_brute_force(cat):
    poset, quotient = brute_force_verdicts(cat)
    assert check_poset_in_groupoids(cat).to_json() == poset
    assert quotient_T(cat).to_json() == quotient
    assert cat.iso_classes() == poset["classes"]
