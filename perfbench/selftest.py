"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that the output gates accept real outputs and reject every
corrupted expected value, that the frozen values agree with closed forms
counted without birmod, that a traced counter which disagrees with the
untraced output is reported, and that the benchmark refuses to run where
the program's source is missing.  They also run every workload untraced
and traced, and check that each declared metric is emitted with its unit,
that the run is correct, and that the traced layer spans account for
most of the traced wall time (about five minutes in all).
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
from math import gcd
from pathlib import Path

import run
import workloads
from workloads import count_symbols

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# the least share of traced wall time that layer spans plus the start of
# each traced process must cover
ACCOUNTED_FLOOR = 0.9

# cheap jobs whose real outputs feed the gate tests, per workload
GATE_JOBS = {
    "presentation": ("rank_N61", "rank_N36_z"),
    "laws": ("laws_coalg", "groupring_grid"),
    "shapes": ("category_chain200", "category_parallel", "equivariant",
               "snc_models"),
}


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value + [value[0] if value else 0]
    return value + "?"


def test_gates(work):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BIRMOD_THREADS", None)
    checked = 0
    for workload, names in GATE_JOBS.items():
        jobs = {j.name: j for j in workloads.build(workload, 7, work)}
        for name in names:
            job = jobs[name]
            argv = ([sys.executable, "-m", "birmod.cli"] if job.cli
                    else [sys.executable, str(HERE / "child.py")]) + job.args
            out = subprocess.run(argv, capture_output=True, text=True,
                                 env=env, cwd=ROOT, check=True).stdout
            assert workloads.check(job, 0, out) == [], name
            assert workloads.check(job, 1, out), name
            assert workloads.check(job, 0, out[:-20]), name
            for key, value in job.expect.items():
                bad = copy.deepcopy(job)
                bad.expect[key] = _corrupt(value)
                assert workloads.check(bad, 0, out), (name, key)
                checked += 1
    return "%d corrupted expectations rejected" % checked


def test_closed_forms():
    grid = [(n, N) for n in range(1, 4) for N in range(2, 9)]
    symbols = sum(count_symbols(n, N) for n, N in grid)
    # lemma48, ks 2,3,4: 9 + 9 pairs, 4 coprime pairs, 3 single-k laws
    assert 31 * symbols == workloads.LAW_CHECKS["lemma48"]
    small = sum(count_symbols(n, N) for n in range(1, 3) for N in range(2, 7))
    assert small ** 2 * 4 == workloads.LAW_CHECKS["ringhom"]
    coalg = sum(count_symbols(n, N) * sum(gcd(k, N) == 1 for k in (2, 3, 5))
                for n, N in grid)
    assert coalg == workloads.LAW_CHECKS["coalg"]
    assert [(p - 5) * (p - 7) // 24 for p in (97, 61)] == [345, 126]
    assert workloads.groupring_expect()["points"] == 46
    return "law counts, genus values and grid sizes agree"


def test_trace_counts(work):
    job = workloads._rank_job(61)
    ref = run.Outcome(job.name, 1.0, 1.0, 1.0, [],
                      json.dumps({"basis": 1890, "rank": 126}))
    spans = [["symbols.relation_matrix", 0, 1, -1, {"basis": 1890}],
             ["linalg.echelon", 0, 1, -1, {"pivots": 1764}]]
    assert run.trace_problems(job, ref.out, spans, ref) == []
    spans[1][4]["pivots"] = 1765
    assert run.trace_problems(job, ref.out, spans, ref)
    assert run.trace_problems(job, ref.out + " ", spans[:1], ref)
    return "count and output mismatches reported"


def test_refuses_without_source(work):
    bare = Path(work) / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "laws", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True,
                         cwd=bare, timeout=170)
    assert res.returncode != 0 and not res.stdout.strip(), res
    return "exit %d, nothing printed" % res.returncode


def test_every_metric(work):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=180)
            assert res.returncode == 0, res.stderr
            doc = json.loads(res.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in doc["metrics"].items()}
            assert got == want, (workload, trace)
            assert all(isinstance(m["value"], (int, float))
                       for m in doc["metrics"].values())
            assert doc["correct"] and doc["failed"] == 0, (workload, trace)
            if trace:
                share = doc["metrics"]["trace.accounted_share"]["value"]
                assert share >= ACCOUNTED_FLOOR, (workload, share)
    return "%d workloads, both modes" % len(workloads.WORKLOADS)


def main():
    tests = [test_closed_forms, test_trace_counts, test_gates,
             test_refuses_without_source, test_every_metric]
    (HERE / "_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=HERE / "_work")
    failed = 0
    try:
        for test in tests:
            args = () if test is test_closed_forms else (work,)
            try:
                note = test(*args)
                print("PASS %s: %s" % (test.__name__, note))
            except AssertionError as exc:
                failed += 1
                print("FAIL %s: %r" % (test.__name__, exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
