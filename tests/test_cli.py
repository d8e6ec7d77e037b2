"""Command line interface: outputs, wire formats, exit codes."""

import hashlib
import json
import time

import pytest

import birmod.symbols
from birmod.cli import main
from birmod.ops import descent_failures
from birmod.symbols import FormalSum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_rank_text(capsys):
    code, out, err = run(capsys, "rank", "--n", "1", "--N", "12")
    assert code == 0 and err == ""
    assert out == "basis 4\nrank 4\n"


def test_rank_json_document(capsys):
    code, out, _ = run(capsys, "rank", "--n", "1", "--N", "12", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "birmod" and "version" in doc
    assert doc["n"] == 1 and doc["N"] == 12 and doc["minus"] is False
    assert doc["basis"] == 4 and doc["rank"] == 4
    assert "invariant_factors" not in doc


def test_rank_integral_minus(capsys):
    code, out, _ = run(capsys, "rank", "--n", "1", "--N", "2", "--minus",
                       "--ring", "z")
    assert code == 0
    assert out == "basis 1\nrank 0\ninvariant factors (2)\n"


# SHA-256 of whole `rank --json` documents, the frozen presentation corpus:
# basis and relation counts, the rank over Q and the invariant factors
@pytest.mark.parametrize("args, digest", [
    ("--n 2 --N 97 --minus",
     "697c8fb60983df5bff46c53a3a1f7a49425488a7ab26b1894efb29607a7d5fd6"),
    ("--n 2 --N 36 --minus --ring z",
     "c7c1ae25c8003b967edae0bc049e38c6ec6178ab672819e4f785e78f1941dc85"),
    ("--n 3 --N 12 --ring z",
     "370b536b05acf76fbc51f7565c094b3c327bdcdcfd90d1b789232db33b5ce916"),
    ("--n 3 --N 16 --minus --ring z",
     "921e8ed63b64ee0c862594c94a7f8af76b532ec15fb480d7374d9b6a5ed583a6"),
], ids=["2-97-minus", "2-36-minus-z", "3-12-z", "3-16-minus-z"])
def test_rank_json_is_frozen(capsys, args, digest):
    code, out, _ = run(capsys, "rank", *args.split(), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rank_and_descent_decode_nothing(capsys, monkeypatch):
    # both work on codes end to end: a symbol is decoded only when a
    # result is handed out, and neither hands one out here
    def refuse(t, L):
        raise AssertionError("decoded %r at level %d" % (t, L))

    monkeypatch.setattr(birmod.symbols, "_dec", refuse)
    code, _, _ = run(capsys, "rank", "--n", "2", "--N", "36", "--minus",
                     "--ring", "z", "--json")
    assert code == 0
    assert descent_failures(2, 6, True, (2, 3)) == []


def test_rank_rejects_bad_arity(capsys):
    code, out, err = run(capsys, "rank", "--n", "0", "--N", "5")
    assert code == 2 and out == ""
    assert err.startswith("error:")
    code, out, err = run(capsys, "rank", "--n", "1", "--N", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_apply_text_and_out_file(tmp_path, capsys):
    inp = write(tmp_path, "x.json", [{"c": 1, "s": ["1/3"]}])
    code, out, _ = run(capsys, "apply", "--op", "rho:2", "--input", inp)
    assert code == 0
    assert out.strip() == "1*<1/6> + 1*<2/3>"
    dest = tmp_path / "y.json"
    code, out, _ = run(capsys, "apply", "--op", "rho:2", "--input", inp,
                       "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text()) == [{"c": 1, "s": ["1/6"]},
                                            {"c": 1, "s": ["2/3"]}]


def test_apply_text_does_not_build_json(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("to_json called for text output")

    monkeypatch.setattr(FormalSum, "to_json", refuse)
    inp = write(tmp_path, "x.json", [{"c": 1, "s": ["1/3"]}])
    for extra in ((), ("--out", "-")):
        code, out, _ = run(capsys, "apply", "--op", "rho:2", "--input", inp,
                           *extra)
        assert code == 0
        assert out == "1*<1/6> + 1*<2/3>\n"


def test_apply_sigma_annihilates(tmp_path, capsys):
    inp = write(tmp_path, "x.json", [{"c": 1, "s": ["1/2"]}])
    code, out, _ = run(capsys, "apply", "--op", "sigma:2", "--input", inp,
                       "--json")
    assert code == 0
    assert json.loads(out)["result"] == []


@pytest.mark.parametrize("doc, result", [
    # entry order and unreduced entries name one symbol; its terms add
    ([{"c": 1, "s": ["1/2", "1/3"]}, {"c": 2, "s": ["1/3", "1/2"]},
      {"c": 1, "s": ["3/2", "1/3"]}], [{"c": 4, "s": ["1/3", "1/2"]}]),
    ([{"c": 1, "s": ["1/2", "1/3"]}, {"c": -1, "s": ["4/3", "1/2"]}], []),
    # one string coefficient makes the whole sum rational
    ([{"c": "1", "s": ["1/3"]}, {"c": 1, "s": ["1/3"]}],
     [{"c": "2", "s": ["1/3"]}]),
])
def test_apply_wire_terms_add(tmp_path, capsys, doc, result):
    inp = write(tmp_path, "x.json", doc)
    code, out, _ = run(capsys, "apply", "--op", "sigma:1", "--input", inp,
                       "--json")
    assert code == 0
    assert json.loads(out)["result"] == result


def test_apply_averaged_lift_is_rational(tmp_path, capsys):
    inp = write(tmp_path, "x.json", [{"c": 1, "s": ["1/3"]}])
    code, out, _ = run(capsys, "apply", "--op", "rhohat:2", "--input", inp,
                       "--json")
    assert code == 0
    assert json.loads(out)["result"] == [{"c": "1/2", "s": ["1/6"]},
                                         {"c": "1/2", "s": ["2/3"]}]


def test_apply_rejects_bad_spec(tmp_path, capsys):
    inp = write(tmp_path, "x.json", [{"c": 1, "s": ["1/3"]}])
    for spec in ("sigma", "sigma:x", "warp:2"):
        code, _, err = run(capsys, "apply", "--op", spec, "--input", inp)
        assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("doc", [
    [{"c": 1, "s": ["1/0"]}],
    [{"c": "1/0", "s": ["1/3"]}],
    [{"c": 0.1, "s": ["1/3"]}],
    [{"c": True, "s": ["1/3"]}],
    [{"c": 1, "s": [0.5]}],
    [{"c": "1e3", "s": ["1/3"]}],
    [{"c": 1, "s": "13"}],
])
def test_apply_rejects_bad_wire_numbers(tmp_path, capsys, doc):
    inp = write(tmp_path, "x.json", doc)
    code, out, err = run(capsys, "apply", "--op", "rho:2", "--input", inp)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("op, entries, size", [
    ("rho:99999999999", ["1/3", "1/5"], "99999999999^2"),
    ("rhohat:99999999999", ["1/3", "1/5"], "99999999999^2"),
    ("ek:99999999999", ["1/3", "1/5"], "99999999999^2"),
    ("rho:2", ["1/3"] * 40, "2^40"),
])
def test_apply_refuses_huge_expansions(tmp_path, capsys, op, entries, size):
    inp = write(tmp_path, "x.json", [{"c": 1, "s": entries}])
    start = time.perf_counter()
    code, out, err = run(capsys, "apply", "--op", op, "--input", inp)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "1 term(s) into %s tuples each" % size in err


def test_laws_text_and_exit(capsys):
    code, out, _ = run(capsys, "laws", "--suite", "lemma48",
                       "--max-n", "1", "--max-N", "4", "--ks", "2,3")
    assert code == 0
    assert "scale_multiplicative checked" in out
    assert "failures 0" in out
    assert "info projected_composite_deviations" in out


@pytest.mark.parametrize("args, size", [
    (("--suite", "lemma48", "--max-n", "1", "--max-N", "3",
      "--ks", "1000000"), "1000000^2"),
    (("--suite", "ringhom", "--max-n", "2", "--max-N", "3", "--ks", "2,7"),
     "7^6"),
    (("--suite", "lemma48", "--max-n", "10000000000", "--max-N", "3",
      "--ks", "2"), "2^20000000000"),
])
def test_laws_refuses_huge_expansions(capsys, args, size):
    start = time.perf_counter()
    code, out, err = run(capsys, "laws", *args)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "1 term(s) into %s tuples each" % size in err


@pytest.mark.parametrize("args, cells, size", [
    (("--suite", "ringhom", "--max-n", "3", "--max-N", "12"), 1089, "3^9"),
    (("--suite", "lemma48", "--max-n", "3", "--max-N", "30", "--ks", "2,4"),
     87, "4^6"),
])
def test_laws_refuses_huge_grids(capsys, args, cells, size):
    start = time.perf_counter()
    code, out, err = run(capsys, "laws", *args)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "%d grid cell(s) into up to %s tuples each" % (cells, size) in err


@pytest.mark.parametrize("args", [
    ("--suite", "lemma48", "--max-n", "3", "--max-N", "200", "--ks", "2"),
    ("--suite", "coalg", "--max-n", "12", "--max-N", "30"),
])
def test_laws_refuses_runaway_grids(capsys, args):
    # each cell's single expansion passes the cap; the grid's symbols
    # times their expansions do not
    start = time.perf_counter()
    code, out, err = run(capsys, "laws", *args)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "grid cell(s) into up to" in err


@pytest.mark.parametrize("suite, max_n, max_N", [
    ("lemma48", "0", "6"), ("ringhom", "2", "1"), ("coalg", "-1", "-1"),
])
def test_laws_refuses_an_empty_grid(capsys, suite, max_n, max_N):
    code, out, err = run(capsys, "laws", "--suite", suite, "--max-n", max_n,
                         "--max-N", max_N, "--json")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "empty grid" in err


def test_laws_json_deterministic(capsys):
    args = ("laws", "--suite", "coalg", "--max-n", "2", "--max-N", "5",
            "--ks", "2,3", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["suite"] == "coalg" and doc["failures_total"] == 0


# SHA-256 of whole `laws --json` documents: they pin the informational
# rows and sample payloads as well as the check counts
@pytest.mark.parametrize("suite, max_n, max_N, digest", [
    ("lemma48", "2", "5",
     "f7e045ca5106c65b98664f2adef2c2a000e4a6189216953fd9dd04499cc33ce2"),
    # arity 3 with 44 projected-composite rows
    ("lemma48", "3", "6",
     "0e12d8e51fc7bc3a71b74ed6c495d200aece107ea8f79e407da215e6c0c2e438"),
    ("ringhom", "1", "5",
     "62d14d6e8f2c5b3452dd6f92c34847211941f376c7fd94a013eb12f6113ce8a0"),
    ("coalg", "3", "6",
     "97ff25712967351a087b598061341e16e0a54610ae75a4df4ae27a0525608e86"),
    # 120 non-coprime coproduct rows, none of which the 3/6 grid has
    ("coalg", "3", "12",
     "5d144f38da713ad12ca74f19d46ae6254459f4ef7eb8ce3b50a3609bc24c2f65"),
], ids=["lemma48", "lemma48-arity-3", "ringhom", "coalg",
        "coalg-non-coprime"])
def test_laws_json_is_frozen(capsys, suite, max_n, max_N, digest):
    code, out, _ = run(capsys, "laws", "--suite", suite, "--max-n", max_n,
                       "--max-N", max_N, "--ks", "2,3", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_burnside_boundary(tmp_path, capsys):
    model = write(tmp_path, "m.json", {
        "dim": 2, "labels": ["E1", "E2"],
        "strata": {"1,2": {"name": "C", "dim": 0}}})
    code, out, _ = run(capsys, "burnside", "boundary", "--model", model)
    assert code == 0
    assert out.strip() == "-1 [C x A^1 -> X] +1 [E1 -> X] +1 [E2 -> X]"
    code, out, _ = run(capsys, "burnside", "boundary", "--model", model,
                       "--json")
    doc = json.loads(out)
    assert doc["model"] == "X" and doc["grading_violations"] == []
    assert len(doc["boundary"]) == 3


@pytest.mark.parametrize("doc", [
    {"dim": 2.9, "labels": ["E1", "E2"],
     "strata": {"1,2": {"name": "C", "dim": 0}}},
    {"dim": True, "labels": ["E1"]},
    {"dim": 2, "labels": ["E1", "E2"],
     "strata": {"1,2": {"name": "C", "dim": 0.4}}},
])
def test_burnside_rejects_non_integer_dims(tmp_path, capsys, doc):
    model = write(tmp_path, "m.json", doc)
    code, out, err = run(capsys, "burnside", "boundary", "--model", model)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


_MODEL = {"dim": 2, "labels": ["D", "E"], "strata": {}}
_SMALL = {"dim": 1, "labels": ["p"], "strata": {}}


@pytest.mark.parametrize("mode, docs", [
    ("boundary", {"model": {"dim": 2, "labels": ["D"], "strata": []}}),
    ("boundary", {"model": {**_MODEL, "labels": "DE"}}),
    ("tower", {"big": _MODEL, "small": _SMALL, "edges": []}),
    ("tower", {"big": _MODEL, "small": {**_SMALL, "labels": "p"},
               "edges": {}}),
])
def test_burnside_rejects_malformed_shapes(tmp_path, capsys, mode, docs):
    # a string once read as a list of one-letter labels, and an array of
    # strata or of edges crashed with a traceback
    argv = []
    for flag, doc in docs.items():
        argv += ["--" + flag, write(tmp_path, flag + ".json", doc)]
    code, out, err = run(capsys, "burnside", mode, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_burnside_pushforward_with_rules(tmp_path, capsys):
    model = write(tmp_path, "xp.json", {
        "dim": 2, "labels": ["Zt", "E"],
        "strata": {"1,2": {"name": "pt", "dim": 0}},
        "name": "Xp", "boundary": "Zp"})
    rules = write(tmp_path, "rules.json", [
        {"from": "Zt", "to": "Z"}, {"from": "E", "to": "line/pt"},
        {"from": "line/pt", "to": "pt x A^1"}])
    relab = write(tmp_path, "map.json", {"Zp": "Z"})
    code, out, _ = run(capsys, "burnside", "pushforward", "--model", model,
                       "--map", relab, "--rules", rules)
    assert code == 0
    assert out.strip() == "+1 [Z -> Z]"


@pytest.mark.parametrize("rules", [
    "", {}, {"E1": "F"}, ["E1"], [["E1", "F"]],
])
def test_burnside_boundary_rejects_malformed_rules(tmp_path, capsys, rules):
    # "" and {} were once read as no rules: the boundary came out
    # unrewritten with exit 0
    model = write(tmp_path, "m.json", {"dim": 1, "labels": ["E1"]})
    rules = write(tmp_path, "rules.json", rules)
    code, out, err = run(capsys, "burnside", "boundary", "--model", model,
                         "--rules", rules)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_burnside_tower(tmp_path, capsys):
    big = write(tmp_path, "big.json", {"dim": 2, "labels": ["Y"],
                                       "strata": {}, "name": "X",
                                       "boundary": "Y"})
    small = write(tmp_path, "small.json", {"dim": 1, "labels": ["p"],
                                           "strata": {}, "name": "Y",
                                           "boundary": "Z"})
    edges = write(tmp_path, "edges.json",
                  {"Y": {"source": "p", "target": "Z", "dim": 0}})
    code, out, _ = run(capsys, "burnside", "tower", "--big", big,
                       "--small", small, "--edges", edges)
    assert code == 0 and out.strip() == "tower check: pass"
    broken = write(tmp_path, "broken.json", {})
    code, out, _ = run(capsys, "burnside", "tower", "--big", big,
                       "--small", small, "--edges", broken)
    assert code == 1 and out.strip() == "tower check: fail"


def test_burnside_tower_and_pushforward_json(tmp_path, capsys):
    big = write(tmp_path, "big.json", {"dim": 2, "labels": ["Y"],
                                       "strata": {}, "name": "X",
                                       "boundary": "Y"})
    small = write(tmp_path, "small.json", {"dim": 1, "labels": ["p"],
                                           "strata": {}, "name": "Y",
                                           "boundary": "Z"})
    edges = write(tmp_path, "edges.json", {"Y": None})
    code, out, _ = run(capsys, "burnside", "tower", "--big", big,
                       "--small", small, "--edges", edges, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["tool"] == "birmod"
    assert doc["ok"] is False and doc["unmapped"] == []
    assert doc["transported"] == []
    assert doc["expected"] == [{"c": 1, "source": "p", "target": "Z",
                                "dim": 0}]
    relab = write(tmp_path, "map.json", {"Y": "W"})
    code, out, _ = run(capsys, "burnside", "pushforward", "--model", big,
                       "--map", relab, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "X"
    assert doc["pushforward"] == [{"c": 1, "source": "Y", "target": "W",
                                   "dim": 1}]


def test_diagram_pairs_with_dot(tmp_path, capsys):
    inp = write(tmp_path, "lad.json",
                {"ladders": [["X", "Y", "Z"]], "i_range": [0, 1]})
    dot = tmp_path / "out.dot"
    code, out, _ = run(capsys, "diagram", "pairs", "--input", inp,
                       "--dot", str(dot))
    assert code == 0
    assert out.strip() == "vertices 4 edges 1"
    text = dot.read_text()
    assert text.startswith("digraph {")
    assert '"Y,Z,0" -> "X,Y,1" [label="boundary"];' in text


def test_diagram_fstar_shift_flag(tmp_path, capsys):
    inp = write(tmp_path, "m.json",
                {"morphisms": [{"from": ["X", "Y"], "to": ["U", "V"]}],
                 "i_range": [0, 1]})
    _, out1, _ = run(capsys, "diagram", "pairs", "--input", inp)
    assert out1.strip() == "vertices 4 edges 1"
    _, out0, _ = run(capsys, "diagram", "pairs", "--input", inp,
                     "--fstar-shift", "0")
    assert out0.strip() == "vertices 4 edges 2"


@pytest.mark.parametrize("kind, doc", [
    ("equivariant", {"twists": [["X", "Y"]]}),
    ("category", {"objects": ["x"],
                  "morphisms": [{"name": "ix", "src": "x", "dst": "x",
                                 "iso": True}],
                  "compose": [], "identities": {"x": "ix"}}),
])
def test_diagram_fstar_shift_only_for_pairs(tmp_path, capsys, kind, doc):
    inp = write(tmp_path, "d.json", doc)
    code, out, err = run(capsys, "diagram", kind, "--input", inp,
                         "--fstar-shift", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--fstar-shift" in err
    assert "Traceback" not in err


def test_diagram_equivariant_json(tmp_path, capsys):
    inp = write(tmp_path, "tw.json", {"twists": [["X", "Y"]]})
    code, out, _ = run(capsys, "diagram", "equivariant", "--input", inp,
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "equivariant"
    assert doc["vertices"] == 2 and doc["edges"] == 1
    assert doc["diagram"]["edges"][0]["kind"] == "twist"


def test_diagram_category_strictness(tmp_path, capsys):
    par = write(tmp_path, "par.json", {
        "objects": ["x", "y"],
        "morphisms": [{"name": "ix", "src": "x", "dst": "x", "iso": True},
                      {"name": "iy", "src": "y", "dst": "y", "iso": True},
                      {"name": "f", "src": "x", "dst": "y"},
                      {"name": "g", "src": "x", "dst": "y"}],
        "compose": [], "identities": {"x": "ix", "y": "iy"}})
    code, out, _ = run(capsys, "diagram", "category", "--input", par)
    assert code == 0
    assert out.splitlines()[0] == "poset-in-groupoids: fail"
    code, _, _ = run(capsys, "diagram", "category", "--input", par,
                     "--strict")
    assert code == 1


def test_diagram_category_json_verdict(tmp_path, capsys):
    chain = write(tmp_path, "chain.json", {
        "objects": ["x", "y"],
        "morphisms": [{"name": "ix", "src": "x", "dst": "x", "iso": True},
                      {"name": "iy", "src": "y", "dst": "y", "iso": True},
                      {"name": "f", "src": "x", "dst": "y"}],
        "compose": [], "identities": {"x": "ix", "y": "iy"}})
    code, out, _ = run(capsys, "diagram", "category", "--input", chain,
                       "--json", "--strict")
    assert code == 0
    doc = json.loads(out)
    assert doc["poset_in_groupoids"]["ok"] is True
    assert doc["poset_in_groupoids"]["thin"] is True
    assert doc["quotient"]["unique_top"] is True


@pytest.mark.parametrize("iso", ["false", "no", 0, 1, None])
def test_diagram_category_rejects_non_boolean_iso(tmp_path, capsys, iso):
    # a truthy string once made f invertible and merged a with b
    inp = write(tmp_path, "cat.json", {
        "objects": ["a", "b"],
        "morphisms": [{"name": "ia", "src": "a", "dst": "a", "iso": True},
                      {"name": "ib", "src": "b", "dst": "b", "iso": True},
                      {"name": "f", "src": "a", "dst": "b", "iso": iso}],
        "identities": {"a": "ia", "b": "ib"}})
    code, out, err = run(capsys, "diagram", "category", "--input", inp,
                         "--json")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("kind,extra", [
    ("pairs", {"i_range": [0.7, 1.2]}),
    ("pairs", {"i_range": [0, True]}),
    ("pairs", {"i_range": ["0"]}),
    ("pairs", {"fstar_shift": True}),
    ("pairs", {"fstar_shift": 1.0}),
    ("equivariant", {"i_range": [0.5]}),
    ("equivariant", {"w_range": [0, False]}),
    ("equivariant", {"w_range": [1.0]}),
])
def test_diagram_rejects_non_integer_ranges(tmp_path, capsys, kind, extra):
    inp = write(tmp_path, "d.json", {"ladders": [["X", "Y", "Z"]], **extra})
    code, out, err = run(capsys, "diagram", kind, "--input", inp, "--json")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


_CAT = {"objects": ["a", "b"],
        "morphisms": [{"name": "ia", "src": "a", "dst": "a", "iso": True},
                      {"name": "ib", "src": "b", "dst": "b", "iso": True}],
        "identities": {"a": "ia", "b": "ib"}}


@pytest.mark.parametrize("kind, doc", [
    ("pairs", []),
    ("pairs", {"pairs": ["ab"]}),
    ("pairs", {"pairs": [["a", "b"]], "varieties": "ab"}),
    ("pairs", {"ladders": ["abc"]}),
    ("pairs", {"morphisms": [{"from": "ab", "to": ["c", "d"]}]}),
    ("pairs", {"morphisms": [{"from": ["a", "b"], "to": "cd"}]}),
    ("equivariant", []),
    ("equivariant", {"twists": ["ab"]}),
    ("category", {**_CAT, "objects": "ab"}),
])
def test_diagram_rejects_malformed_shapes(tmp_path, capsys, kind, doc):
    # a string once read as a list of one-letter labels or objects, and a
    # document that is not an object crashed with a traceback
    inp = write(tmp_path, "d.json", doc)
    code, out, err = run(capsys, "diagram", kind, "--input", inp, "--json")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


_LOOP = {"objects": ["x"],
         "morphisms": [{"name": "i", "src": "x", "dst": "x", "iso": True}],
         "identities": {"x": "i"}}


@pytest.mark.parametrize("doc", [
    [_CAT],
    {**_CAT, "identities": [["a", "ia"], ["b", "ib"]]},
    {**_CAT, "identities": "ab"},
    {**_CAT, "morphisms": {m["name"]: m for m in _CAT["morphisms"]}},
    {**_CAT, "morphisms": [["ia", "a", "a"], ["ib", "b", "b"]]},
    {**_LOOP, "compose": ["iii"]},
    {**_LOOP, "compose": {"iii": 0}},
    {**_LOOP, "compose": "iii"},
])
def test_diagram_category_rejects_malformed_shapes(tmp_path, capsys, doc):
    # an array of identity pairs, a composite spelled as one string of
    # one-letter names and a table given as an object were once accepted
    inp = write(tmp_path, "cat.json", doc)
    code, out, err = run(capsys, "diagram", "category", "--input", inp,
                         "--json")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


_ARROW = {"name": "f", "src": "a", "dst": "b"}


@pytest.mark.parametrize("doc, message", [
    ({**_CAT, "objects": ["a", "b", "a"]}, "object names must be distinct"),
    ({**_CAT, "morphisms": _CAT["morphisms"] * 2}, "two morphisms named"),
    ({**_CAT, "morphisms": [*_CAT["morphisms"],
                            {**_ARROW, "dst": "c"}]}, "endpoints unknown"),
    ({**_CAT, "compose": [["ia", "ia", "h"]]}, "unknown morphism 'h'"),
    ({**_CAT, "morphisms": [*_CAT["morphisms"], _ARROW],
      "compose": [["f", "f", "f"]]}, "composition f then f undefined"),
    ({**_CAT, "morphisms": [*_CAT["morphisms"], _ARROW],
      "compose": [["ia", "f", "ia"]]}, "composite ia has wrong endpoints"),
    ({**_CAT, "morphisms": [*_CAT["morphisms"], _ARROW,
                            {**_ARROW, "name": "g"}],
      "compose": [["ia", "f", "f"], ["ia", "f", "g"]]},
     "conflicting composites for (ia, f)"),
])
def test_diagram_category_refuses_bad_presentations(tmp_path, capsys, doc,
                                                    message):
    inp = write(tmp_path, "cat.json", doc)
    code, out, err = run(capsys, "diagram", "category", "--input", inp)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_diagram_pairs_refuses_three_labels(tmp_path, capsys):
    inp = write(tmp_path, "p.json", {"pairs": [["a", "b", "c"]]})
    code, out, err = run(capsys, "diagram", "pairs", "--input", inp)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exactly two labels" in err


@pytest.mark.parametrize("argv", [("apply", "--op", "sigma:2"),
                                  ("diagram", "pairs")])
def test_deeply_nested_input_is_an_input_error(tmp_path, capsys, argv):
    depth = 200000
    inp = tmp_path / "deep.json"
    inp.write_text("[" * depth + "]" * depth)
    code, out, err = run(capsys, *argv, "--input", str(inp))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nests too deeply" in err


def test_missing_input_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "apply", "--op", "sigma:2",
                       "--input", "/definitely/not/there.json")
    assert code == 2 and err.startswith("error:")
