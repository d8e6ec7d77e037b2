"""Command line interface: outputs, wire formats, exit codes."""

import json

import pytest

from birmod.cli import main


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


def test_rank_rejects_bad_arity(capsys):
    code, out, err = run(capsys, "rank", "--n", "0", "--N", "5")
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


def test_apply_sigma_annihilates(tmp_path, capsys):
    inp = write(tmp_path, "x.json", [{"c": 1, "s": ["1/2"]}])
    code, out, _ = run(capsys, "apply", "--op", "sigma:2", "--input", inp,
                       "--json")
    assert code == 0
    assert json.loads(out)["result"] == []


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
])
def test_apply_rejects_bad_wire_numbers(tmp_path, capsys, doc):
    inp = write(tmp_path, "x.json", doc)
    code, out, err = run(capsys, "apply", "--op", "rho:2", "--input", inp)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_laws_text_and_exit(capsys):
    code, out, _ = run(capsys, "laws", "--suite", "lemma48",
                       "--max-n", "1", "--max-N", "4", "--ks", "2,3")
    assert code == 0
    assert "scale_multiplicative checked" in out
    assert "failures 0" in out
    assert "info projected_composite_deviations" in out


def test_laws_json_deterministic(capsys):
    args = ("laws", "--suite", "coalg", "--max-n", "2", "--max-N", "5",
            "--ks", "2,3", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["suite"] == "coalg" and doc["failures_total"] == 0


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


def test_missing_input_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "apply", "--op", "sigma:2",
                       "--input", "/definitely/not/there.json")
    assert code == 2 and err.startswith("error:")
