"""Workloads: inputs made from a seed, job lists and output gates.

A job is one fresh interpreter.  CLI jobs run ``python -m birmod.cli``;
API jobs run ``perfbench/child.py`` because the work has no CLI verb or
each call is far shorter than interpreter start-up.  Every job carries an
output gate: a fast wrong answer counts as a failed op.  Expected values
come from closed forms computed here without birmod, or are frozen from
the seed commit where no closed form exists.
"""

import json
import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb, gcd
from pathlib import Path

# Why each workload exists; BENCHMARK.json repeats these one-liners.
WORKLOADS = {
    "presentation": "rank jobs where sparse elimination and Smith form "
                    "dominate and the operator layer is never called",
    "laws": "law suites and the criterion-9 group-ring grid: pure operator "
            "and Q/Z work with no linear algebra",
    "descent": "the descent grid: many small eliminations and span queries "
               "mixed with relation rows and operators",
    "shapes": "category checks on generated chains and a category with "
              "parallel arrows, plus boundary calculus on random models",
}

DESCENT_GRID = [(n, N, minus) for n in range(1, 4) for N in range(2, 7)
                for minus in (False, True)]
DESCENT_KS = (2, 3)

# Frozen at the seed commit: invariant factors of rank --n 2 --N 36 --minus
# as (value, multiplicity), and the law-check totals per suite.
N36_FACTORS = [(1, 393), (2, 17)]
LAW_CHECKS = {"lemma48": 12493, "ringhom": 10816, "coalg": 864}
LAW_GRIDS = {"lemma48": ("3", "8", "2,3,4"),
             "ringhom": ("2", "6", "2,3"),
             "coalg": ("3", "8", "2,3,5")}

CHAIN_SIZES = (200, 400)


@dataclass
class Job:
    """One timed process: its arguments, gate and frozen expectations.

    ``args`` follow ``python -m birmod.cli`` when ``cli`` is true, else
    ``perfbench/child.py``.  ``gate(doc, expect)`` returns a list of
    problems with the parsed output; ``counts`` maps a traced counter to
    the value the untraced output implies.
    """
    name: str
    cli: bool
    args: list
    gate: object
    expect: dict
    counts: object = None


def count_symbols(n, N):
    """Sorted n-tuples over Z/N that generate Z/N, counted without birmod."""
    return sum(1 for t in combinations_with_replacement(range(N), n)
               if gcd(N, *t) == 1)


def rows_generated(n, N, minus):
    """Relation rows produced before deduplication, from the basis size.

    Each symbol yields one blow-up row per part of size 2..n, and with the
    negation quotient one row per entry.
    """
    per_symbol = sum(comb(n, k) for k in range(2, n + 1)) + (n if minus else 0)
    return count_symbols(n, N) * per_symbol


def _problems(pairs):
    return ["%s: got %r, want %r" % (what, got, want)
            for what, got, want in pairs if got != want]


# presentation

def _gate_rank(doc, expect):
    pairs = [("basis", doc.get("basis"), expect["basis"])]
    if "rank" in expect:
        pairs.append(("rank", doc.get("rank"), expect["rank"]))
    if "factors" in expect:
        got = doc.get("invariant_factors", [])
        runs = {}
        for d in got:
            runs[d] = runs.get(d, 0) + 1
        pairs.append(("invariant factors", sorted(map(list, runs.items())),
                      expect["factors"]))
        # one factor per pivot: their count is the rank of the relations
        pairs.append(("factor count", len(got),
                      doc.get("basis", 0) - doc.get("rank", 0)))
    return _problems(pairs)


def _rank_counts(doc):
    return {"basis": doc["basis"], "pivots": doc["basis"] - doc["rank"]}


def _rank_job(N, ring_z=False):
    args = ["rank", "--n", "2", "--N", str(N), "--minus", "--json"]
    expect = {"basis": count_symbols(2, N)}
    if ring_z:
        args[5:5] = ["--ring", "z"]
        expect["factors"] = [list(f) for f in N36_FACTORS]
        expect["rank"] = 28
    else:
        # N prime: the rank is the genus of X_1(N)
        expect["rank"] = (N - 5) * (N - 7) // 24
    return Job("rank_N%d%s" % (N, "_z" if ring_z else ""), True, args,
               _gate_rank, expect, _rank_counts)


def _presentation(rng, work):
    return [_rank_job(97), _rank_job(61), _rank_job(36, ring_z=True)]


# laws

def _gate_laws(doc, expect):
    laws = doc.get("laws", [])
    return _problems([
        ("checks", sum(l["checked"] for l in laws), expect["checks"]),
        ("failures_total", doc.get("failures_total"), 0),
        ("per-law failures", [l["failures"] for l in laws], [0] * len(laws)),
    ])


def _laws_counts(doc):
    return {"law_checks": sum(l["checked"] for l in doc["laws"])}


def _gate_fields(doc, expect):
    return _problems([(k, doc.get(k), v) for k, v in expect.items()])


def groupring_expect():
    """Criterion-9 grid sizes: points of order q <= 12, scale cases."""
    orders = [q for q in range(1, 13) for p in range(q) if gcd(p, q) == 1]
    scale_cases = sum(1 for q in orders if q >= 2
                      for k in range(2, 7) if k % q)
    return {"points": len(orders), "scale_cases": scale_cases,
            "failures": 0}


def _laws(rng, work):
    jobs = []
    for suite, (max_n, max_N, ks) in LAW_GRIDS.items():
        args = ["laws", "--suite", suite, "--max-n", max_n, "--max-N", max_N,
                "--ks", ks, "--json"]
        jobs.append(Job("laws_" + suite, True, args, _gate_laws,
                        {"checks": LAW_CHECKS[suite]}, _laws_counts))
    jobs.append(Job("groupring_grid", False, ["groupring"], _gate_fields,
                    groupring_expect()))
    return jobs


# descent

def _gate_descent(doc, expect):
    return _problems([("cells", doc.get("cells"), expect["cells"]),
                      ("escapes", len(doc.get("escapes", [None])), 0)])


def _descent(rng, work):
    return [Job("descent_grid", False, ["descent"], _gate_descent,
                {"cells": len(DESCENT_GRID)})]


# shapes

def _category(objects, morphisms, compose):
    return {"objects": objects,
            "morphisms": [{"name": m, "src": s, "dst": d, "iso": iso}
                          for m, s, d, iso in morphisms],
            "compose": compose,
            "identities": {o: "id_" + o for o in objects}}


def chain_input(rng, size):
    """A chain of objects with a few shortcut arrows, names shuffled.

    Returns the category document and its expected verdict: every object
    is its own class, the start object is the unique top, and exactly the
    shortcut edges are decomposable.
    """
    names = ["c%04d" % i for i in range(size)]
    rng.shuffle(names)
    mors = [("id_" + o, o, o, True) for o in names]
    mors += [("f%04d" % i, names[i], names[i + 1], False)
             for i in range(size - 1)]
    shortcuts = sorted(rng.sample(range(size - 2), size // 20))
    mors += [("s%04d" % i, names[i], names[i + 2], False) for i in shortcuts]
    rng.shuffle(mors)
    expect = {"ok": True, "thin": True, "witnesses": 0, "classes": size,
              "edges": size - 1 + len(shortcuts),
              "decomposable": len(shortcuts), "top": [names[0]],
              "has_cycle": False}
    return _category(sorted(names), mors, []), expect


def parallel_input(rng, objects=16, order=6, arrows=6):
    """Objects in a line, each with a cyclic group of endomorphisms.

    Between neighbours sit ``arrows`` parallel arrows that the groups
    rotate, so orbits are whole hom-sets, except at one seeded pair where
    the rotation goes in steps of two and splits the hom-set by parity.
    The verdict therefore fails with exactly one orbit witness.
    """
    tag = "".join(rng.choice("abcdefgh") for _ in range(3))
    objs = ["%s%02d" % (tag, i) for i in range(objects)]
    broken = rng.randrange(objects - 1)

    def endo(i, a):
        return "id_" + objs[i] if a == 0 else "e%s_%d" % (objs[i], a)

    def arrow(i, t):
        return "f%s_%d" % (objs[i], t)

    mors, comp = [], []
    for i in range(objects):
        mors += [(endo(i, a), objs[i], objs[i], True) for a in range(order)]
        comp += [[endo(i, a), endo(i, b), endo(i, (a + b) % order)]
                 for a in range(order) for b in range(order)]
    for i in range(objects - 1):
        step = 2 if i == broken else 1
        mors += [(arrow(i, t), objs[i], objs[i + 1], False)
                 for t in range(arrows)]
        for a in range(order):
            for t in range(arrows):
                moved = arrow(i, (t + step * a) % arrows)
                comp.append([endo(i, a), arrow(i, t), moved])
                comp.append([arrow(i, t), endo(i + 1, a), moved])
    rng.shuffle(mors)
    rng.shuffle(comp)
    hom = sorted(arrow(broken, t) for t in range(arrows))
    first = int(hom[0].rsplit("_", 1)[1])
    witness = next(g for g in hom if (int(g.rsplit("_", 1)[1]) - first) % 2)
    expect = {"ok": False, "thin": False, "witnesses": 1,
              "witness": [hom[0], witness], "classes": objects,
              "edges": objects - 1, "decomposable": 0, "top": [objs[0]],
              "has_cycle": False}
    return _category(objs, mors, comp), expect


def _gate_category(doc, expect, dot_path):
    verdict = doc.get("poset_in_groupoids", {})
    quot = doc.get("quotient", {})
    edges = quot.get("edges", [])
    pairs = [
        ("ok", verdict.get("ok"), expect["ok"]),
        ("thin", verdict.get("thin"), expect["thin"]),
        ("not_invertible", verdict.get("not_invertible"), []),
        ("witnesses", len(verdict.get("orbit_witnesses", [])),
         expect["witnesses"]),
        ("classes", len(quot.get("classes", [])), expect["classes"]),
        ("edges", len(edges), expect["edges"]),
        ("decomposable", sum(1 for e in edges if e["decomposable"]),
         expect["decomposable"]),
        ("top", quot.get("top_classes"), expect["top"]),
        ("unique_top", quot.get("unique_top"), True),
        ("has_cycle", quot.get("has_cycle"), expect["has_cycle"]),
    ]
    if "witness" in expect:
        pairs.append(("witness", verdict.get("orbit_witnesses", [None])[0],
                      expect["witness"]))
    # DOT: header, one line per class, one per edge, closing brace
    dot_lines = len(Path(dot_path).read_text().splitlines())
    pairs.append(("dot lines", dot_lines,
                  2 + expect["classes"] + expect["edges"]))
    return _problems(pairs)


def equivariant_input(rng, ladders=12, morphisms=16, twists=12, degrees=6,
                      weights=4):
    """Ladders, morphisms and twists over seeded labels, all distinct."""
    labels = ["V%02d" % i for i in range(24)]
    rng.shuffle(labels)
    lads = [list(t) for t in rng.sample(list(combinations(labels, 3)),
                                        ladders)]
    pair_pool = list(combinations(labels, 2))
    mors = [{"from": list(a), "to": list(b)} for a, b in
            rng.sample(list(combinations(rng.sample(pair_pool, 40), 2)),
                       morphisms)]
    tws = [list(p) for p in rng.sample(pair_pool, twists)]
    data = {"ladders": lads, "morphisms": mors, "twists": tws,
            "i_range": list(range(degrees)), "w_range": list(range(weights))}
    pairs = {tuple(l[:2]) for l in lads} | {tuple(l[1:]) for l in lads}
    pairs |= {tuple(m["from"]) for m in mors} | {tuple(m["to"]) for m in mors}
    pairs |= {tuple(t) for t in tws}
    grid = degrees * weights
    expect = {"vertices": (len(pairs) + twists) * grid,
              "pullback": morphisms * grid,
              "boundary": ladders * (degrees - 1) * weights,
              "twist": twists * grid}
    return data, expect


# degree and weight shift of each edge kind of the equivariant diagram
EDGE_SHIFT = {"pullback": (0, 0), "boundary": (1, 0), "twist": (2, 1)}


def _gate_equivariant(doc, expect, dot_path):
    edges = doc.get("diagram", {}).get("edges", [])
    kinds = {k: 0 for k in EDGE_SHIFT}
    bad_shift = 0
    for e in edges:
        kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
        shift = (e["dst"][2] - e["src"][2], e["dst"][3] - e["src"][3])
        bad_shift += shift != EDGE_SHIFT.get(e["kind"])
    pairs = [("vertices", doc.get("vertices"), expect["vertices"]),
             ("edge count", doc.get("edges"), len(edges)),
             ("shift errors", bad_shift, 0)]
    pairs += [(k + " edges", kinds[k], expect[k]) for k in EDGE_SHIFT]
    dot_lines = len(Path(dot_path).read_text().splitlines())
    pairs.append(("dot lines", dot_lines, 2 + expect["vertices"]
                  + sum(expect[k] for k in EDGE_SHIFT)))
    return _problems(pairs)


def snc_models(rng, count, max_labels=5, max_dim=6):
    """Random normal-crossings models with rewrite rules, relabelings and
    cyclic label actions, plus the coefficient sum of their boundaries.

    The boundary puts sign +1 on odd-depth strata and -1 on even-depth
    ones; rewriting, pushforward and relabeling only merge terms, so all
    four coefficient sums the job reports equal that signed count.
    """
    models, strata, signed = [], 0, 0
    for m in range(count):
        d = rng.randint(1, max_dim)
        nlab = rng.randint(1, max_labels)
        labels = ["D%d" % i for i in range(1, nlab + 1)]
        deep = []
        for r in range(2, min(nlab, d) + 1):
            for key in combinations(range(1, nlab + 1), r):
                if rng.random() < 0.5:
                    deep.append([list(key), "cap_" + "".join(map(str, key)),
                                 d - r])
        name = "X%d" % m
        rules = [[lab, "P%d x A^%d" % (rng.randrange(3), rng.randint(1, 2))]
                 for lab in labels if rng.random() < 0.5]
        models.append({"dim": d, "labels": labels, "strata": deep,
                       "name": name, "rules": rules,
                       "relabel": {name: "T%d" % rng.randrange(4)},
                       "shift": rng.randrange(nlab)})
        strata += nlab + len(deep)
        signed += nlab - sum(1 if len(k) % 2 == 0 else -1
                             for k, _, _ in deep)
    return models, strata, signed


def tower_specs(rng, count):
    """Two-step towers that pass by construction.

    The big model has components C1..Cm and deep strata; each component
    maps to the matching component of the small model and every deep
    composite dies, so the transported class is the small boundary.
    """
    towers = []
    for t in range(count):
        d = rng.randint(2, 6)
        m = rng.randint(1, 4)
        big_labels = ["C%d" % i for i in range(1, m + 1)]
        deep = [[list(k), "w_" + "".join(map(str, k)), d - len(k)]
                for r in range(2, min(m, d) + 1)
                for k in combinations(range(1, m + 1), r)
                if rng.random() < 0.5]
        small_name = "Y%d" % t
        edges = {lab: ["L" + lab[1:], small_name, d - 2]
                 for lab in big_labels}
        edges.update({name + " x A^%d" % (len(k) - 1): None
                      for k, name, _ in deep})
        towers.append({
            "big": {"dim": d, "labels": big_labels, "strata": deep,
                    "name": "B%d" % t},
            "small": {"dim": d - 1,
                      "labels": ["L" + lab[1:] for lab in big_labels],
                      "strata": [], "name": small_name},
            "edges": edges})
    return towers


def _shapes(rng, work):
    jobs = []
    specs = [("chain%d" % size, chain_input(rng, size))
             for size in CHAIN_SIZES]
    specs.append(("parallel", parallel_input(rng)))
    for name, (data, expect) in specs:
        path, dot = work / (name + ".json"), work / (name + ".dot")
        path.write_text(json.dumps(data))
        jobs.append(Job("category_" + name, True,
                        ["diagram", "category", "--input", str(path),
                         "--dot", str(dot), "--json"],
                        lambda doc, exp, dot=dot:
                            _gate_category(doc, exp, dot),
                        expect))
    data, expect = equivariant_input(rng)
    path, dot = work / "equivariant.json", work / "equivariant.dot"
    path.write_text(json.dumps(data))
    jobs.append(Job("equivariant", True,
                    ["diagram", "equivariant", "--input", str(path),
                     "--dot", str(dot), "--json"],
                    lambda doc, exp: _gate_equivariant(doc, exp, dot),
                    expect))
    models, strata, signed = snc_models(rng, 4000)
    towers = tower_specs(rng, 1000)
    path = work / "snc.json"
    path.write_text(json.dumps({"models": models, "towers": towers}))
    jobs.append(Job("snc_models", False, ["burnside", str(path)],
                    _gate_fields, {"models": len(models), "strata": strata,
                     "coeff_sums": [signed] * 4, "grading_violations": 0,
                     "action_cycle_failures": 0, "towers": len(towers),
                     "towers_ok": len(towers)}))
    return jobs


_BUILDERS = {"presentation": _presentation, "laws": _laws,
             "descent": _descent, "shapes": _shapes}


def build(workload, seed, work):
    """The workload's jobs for a seed, with inputs written under ``work``.

    The seed fixes the generated inputs and the job order.
    """
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = _BUILDERS[workload](rng, Path(work))
    rng.shuffle(jobs)
    return jobs


def check(job, code, out_text):
    """Problems with one job's exit code and output, empty when correct."""
    if code != 0:
        return ["exit code %d" % code]
    try:
        doc = json.loads(out_text)
    except ValueError as exc:
        return ["output is not JSON: %s" % exc]
    try:
        return job.gate(doc, job.expect)
    except (AttributeError, KeyError, TypeError, IndexError, OSError) as exc:
        return ["output check raised %r" % exc]


def _gate_qz(doc, expect):
    return _problems([(k, doc.get(k, 0) > 0, True) for k in expect["keys"]])


def qz_job():
    """The traced run's Q/Z micro-batch: nanoseconds per operation."""
    return Job("qz_batch", False, ["qz"], _gate_qz,
               {"keys": ["add_ns", "scale_ns", "preimages_ns"]})
