"""birmod benchmark: fresh-process jobs timed end to end, layers traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Load is a closed loop with one client: one job at a time, each in a fresh
interpreter, so the process-global caches of ``ops`` and ``qz`` start cold
in every job as they do for a user.  Inputs are generated from the seed
before any timing starts.

With ``--trace 0`` the job list is repeated while another pass still fits
in ``--seconds`` (at least one pass) and the end-to-end metrics are
reported: medians over passes, peak memory over all jobs, and the share of
jobs that passed their output gate.  With ``--trace 1`` one untraced pass
is followed by a traced pass of the same jobs and the Q/Z micro-batch,
and the per-layer metrics are reported.  The metric names and units
are those of ``BENCHMARK.json``.  The last line of stdout is the result as
one JSON object; the lines before it are a readable report.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CHILD = HERE / "child.py"
SETUP_STARTS = 48
TRACE_SETUP_STARTS = 9
JOB_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0
LAYERS = ("symbols", "linalg", "ops", "groupring", "burnside", "diagram")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    job: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list
    out: str


def _spawn(argv, env, out, err, timeout):
    """Run ``argv`` to the end; return its exit code, CPU time and peak RSS."""
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        proc = subprocess.Popen(argv, stdout=out_fh, stderr=err_fh, env=env,
                                cwd=ROOT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], max(timeout, 0))[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    return {"code": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


class Spawner:
    """A small process, forked before any input is built, that starts jobs.

    Linux counts the peak RSS of the process a child was started from in
    the child's own peak, so jobs are started from here and not from the
    main process, whose memory grows with generated inputs and parsed
    outputs.
    Requests and replies are JSON lines over two pipes.
    """

    def __init__(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(rep_r)
            code = 0
            try:
                with os.fdopen(req_r) as reqs, os.fdopen(rep_w, "w") as reps:
                    for line in reqs:
                        reps.write(json.dumps(_spawn(**json.loads(line)))
                                   + "\n")
                        reps.flush()
            except BaseException:
                code = 1
            os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self.reqs, self.reps = os.fdopen(req_w, "w"), os.fdopen(rep_r)

    def spawn(self, **request):
        self.reqs.write(json.dumps(request) + "\n")
        self.reqs.flush()
        line = self.reps.readline()
        if not line:
            raise BenchError("the job launcher stopped")
        return json.loads(line)

    def close(self):
        self.reqs.close()
        os.waitpid(self.pid, 0)
        self.reps.close()


class Runner:
    """Starts jobs one at a time in a pinned environment."""

    def __init__(self, spawner, seed, work, deadline):
        env = {k: v for k, v in os.environ.items()
               if k != "BIRMOD_THREADS" and not k.startswith("PYTHON")}
        env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.spawner, self.env = spawner, env
        self.work, self.deadline = Path(work), deadline

    def spawn(self, argv, out_path):
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        return self.spawner.spawn(argv=argv, env=self.env, out=str(out_path),
                                  err=str(self.work / "stderr.txt"),
                                  timeout=timeout)

    def run(self, job, spans_path=None):
        """Time one job from launch until its output is read and checked."""
        if spans_path:
            args = (["cli"] if job.cli else []) + job.args
            argv = [sys.executable, str(CHILD), "--trace", str(spans_path)]
            argv += args
        elif job.cli:
            argv = [sys.executable, "-m", "birmod.cli"] + job.args
        else:
            argv = [sys.executable, str(CHILD)] + job.args
        out_path = self.work / "stdout.txt"
        t0 = time.perf_counter()
        res = self.spawn(argv, out_path)
        out = out_path.read_text()
        problems = workloads.check(job, res["code"], out)
        wall = time.perf_counter() - t0
        if problems and res["code"] != 0:
            err = (self.work / "stderr.txt").read_text().strip()
            problems.append("stderr: " + err[-300:])
        return Outcome(job.name, wall, res["cpu_s"], res["rss_mb"], problems,
                       out)

    def start_times(self, argv, samples):
        """Wall times of ``samples`` fresh starts of ``argv``."""
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            code = self.spawn(argv, self.work / "stdout.txt")["code"]
            times.append(time.perf_counter() - t0)
            if code != 0:
                err = (self.work / "stderr.txt").read_text().strip()
                raise BenchError("%s failed: %s" % (argv[1:], err[-300:]))
        return times


def measure(runner, jobs, seconds):
    """Untraced passes over the job list while another one fits.

    Returns the passes and the set-up times: interpreter start plus
    ``import birmod.cli``.  One unmeasured start first writes the bytecode
    caches, which a user's first run also leaves behind.  The measured
    starts are spread evenly between the jobs of the first pass, so that
    they see the machine at the same speed as the jobs do.
    """
    argv = [sys.executable, "-c", "import birmod.cli"]
    runner.start_times(argv, 1)
    per_job = -(-SETUP_STARTS // len(jobs))
    setup, passes = [], []
    while True:
        outcomes = []
        for job in jobs:
            if not passes:
                setup += runner.start_times(argv, per_job)
            outcomes.append(runner.run(job))
        passes.append(outcomes)
        done = sum(o.wall_s for p in passes for o in p)
        if done + sum(o.wall_s for o in outcomes) > seconds:
            return passes, setup


def end_to_end(passes, setup):
    outcomes = [o for p in passes for o in p]
    ok = sum(1 for o in outcomes if not o.problems)
    return {
        "wall_s": statistics.median(sum(o.wall_s for o in p) for p in passes),
        "cpu_s": statistics.median(sum(o.cpu_s for o in p) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "ok_ops": ok / len(outcomes),
    }


def job_counters(spans):
    """Counters one traced job reported, summed over its spans."""
    got = Counter()
    for name, _, _, _, counts in spans:
        for key, val in (counts or {}).items():
            if key in ("basis", "pivots", "law_checks"):
                got[key] += val
    return got


def trace_problems(job, traced_out, spans, ref):
    """Differences between a traced job and its untraced run ``ref``.

    The output must be identical, and the counters the spans saw must
    match what the untraced output implies (basis, pivots, law checks).
    """
    if traced_out != ref.out:
        return ["%s: traced output differs from untraced" % job.name]
    if ref.problems or not job.counts:
        return []
    got = job_counters(spans)
    return ["%s: traced %s %d, untraced output says %d"
            % (job.name, key, got[key], val)
            for key, val in job.counts(json.loads(ref.out)).items()
            if got[key] != val]


def traced(runner, jobs):
    """An untraced pass, then the same jobs traced, then the Q/Z batch.

    Returns the outcomes of all jobs, a list of problems found by
    comparing the two passes, and the per-layer metrics.
    """
    plain = [runner.run(job) for job in jobs]
    spans_path = runner.work / "spans.json"
    outs, span_lists, problems = [], [], []
    for job, ref in zip(jobs, plain):
        out = runner.run(job, spans_path)
        spans = json.loads(spans_path.read_text()) if not out.problems else []
        outs.append(out)
        span_lists.append(spans)
        if not out.problems:
            problems += trace_problems(job, out.out, spans, ref)
    batch = runner.run(workloads.qz_job())
    qz = json.loads(batch.out) if not batch.problems else {}
    metrics = layer_metrics(span_lists, qz)
    trace_wall = sum(o.wall_s for o in outs)
    plain_wall = sum(o.wall_s for o in plain)
    metrics.update({
        "trace.wall_s": trace_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": trace_wall - plain_wall,
        "trace.overhead_share": (trace_wall - plain_wall) / plain_wall,
    })
    # spans cover a traced job except the start of child.py: interpreter,
    # imports, installing the wrappers and writing the spans
    empty = [sys.executable, str(CHILD), "--trace", str(spans_path), "empty"]
    start = statistics.median(runner.start_times(empty, TRACE_SETUP_STARTS))
    roots = sum(s[2] - s[1] for spans in span_lists for s in spans
                if s[3] < 0) / 1e9
    metrics["trace.accounted_share"] = (
        (roots + start * len(outs)) / trace_wall)
    return plain + outs + [batch], problems, metrics


def layer_metrics(span_lists, qz):
    total = defaultdict(float)
    calls = Counter()
    counts = Counter()
    own = defaultdict(float)
    max_bits = 0
    echelons = []
    for spans in span_lists:
        for s, self_ns in zip(spans, self_times(spans)):
            name, dur = s[0], (s[2] - s[1]) / 1e9
            total[name] += dur
            calls[name] += 1
            own[name.split(".")[0]] += self_ns / 1e9
            for key, val in (s[4] or {}).items():
                if key == "max_coeff_bits":
                    max_bits = max(max_bits, val)
                else:
                    counts[name, key] += val
            if name == "linalg.echelon":
                echelons.append((s[4]["nnz"], dur))
    echelons.sort(reverse=True)
    per_nnz = [dur * 1e6 / nnz if nnz else 0.0 for nnz, dur in echelons]
    per_nnz += [0.0, 0.0]
    m = {
        "qz.add_ns": qz.get("add_ns", 0.0),
        "qz.scale_ns": qz.get("scale_ns", 0.0),
        "qz.preimages_ns": qz.get("preimages_ns", 0.0),
        "symbols.basis": counts["symbols.relation_matrix", "basis"],
        "symbols.rows_generated":
            counts["symbols.relation_rows", "rows_generated"],
        "symbols.rows_kept": counts["symbols.relation_rows", "rows_kept"],
        "linalg.nnz": counts["linalg.echelon", "nnz"],
        "linalg.pivots": counts["linalg.echelon", "pivots"],
        "linalg.pivot_nnz": counts["linalg.echelon", "pivot_nnz"],
        "linalg.max_coeff_bits": max_bits,
        "linalg.echelon_us_per_nnz_largest": per_nnz[0],
        "linalg.echelon_us_per_nnz_second": per_nnz[1],
        "linalg.snf_cols": counts["linalg.snf", "snf_cols"],
        "linalg.contains_calls": calls["linalg.contains"],
        "burnside.strata": counts["burnside.boundary", "strata"],
        "cli.overhead_s": own["cli"],
        "trace.bookkeeping_s": own["bench"],
    }
    generated = m["symbols.rows_generated"]
    m["symbols.rows_kept_ratio"] = (m["symbols.rows_kept"] / generated
                                    if generated else 0.0)
    for span in ("symbols.enumerate", "symbols.relation_rows",
                 "symbols.relation_matrix", "linalg.echelon", "linalg.snf",
                 "linalg.contains", "ops.descent", "groupring.sigma",
                 "groupring.rho", "groupring.bridge", "burnside.boundary",
                 "burnside.rewrite", "burnside.pushforward",
                 "burnside.action", "burnside.tower", "diagram.cat_build",
                 "diagram.poset_check", "diagram.quotient",
                 "diagram.equivariant", "diagram.dot", "cli.main"):
        m[span + "_s"] = total[span]
    for op in ("sigma", "rho", "e", "rhohat", "nabla", "delta", "split"):
        m["ops.%s_s" % op] = total["ops." + op]
        m["ops.%s_terms_out" % op] = counts["ops." + op, "terms_out"]
    for suite in workloads.LAW_CHECKS:
        span = "ops.check_laws." + suite
        m["ops.check_laws_%s_s" % suite] = total[span]
        m["ops.law_checks_" + suite] = counts[span, "law_checks"]
    for layer in LAYERS:
        m[layer + ".self_s"] = own[layer]
    return m


def environment(args):
    """Python version, cores, code identity and seed of this result."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def report(env, outcomes, values, declared, problems):
    """The readable report, then the result as one JSON line."""
    print("env " + json.dumps(env, sort_keys=True))
    for p in problems:
        print("trace check: " + p)
    for o in outcomes:
        print("job %-22s %8.3f s  cpu %8.3f s  rss %6.1f MB  %s"
              % (o.job, o.wall_s, o.cpu_s, o.rss_mb,
                 "; ".join(o.problems) or "ok"))
    missing = {n for n, _ in declared} ^ set(values)
    if missing:
        raise BenchError("metrics out of step with BENCHMARK.json: %s"
                         % sorted(missing))
    failed = sum(1 for o in outcomes if o.problems)
    print("failed_ops %d of %d" % (failed, len(outcomes)))
    for name, unit in declared:
        print("metric %-36s %14.6g %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes), "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in declared},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "birmod" / "cli.py").is_file():
        raise BenchError("run from a checkout root: src/birmod is missing")
    declared = declared_metrics(args.trace)
    deadline = time.monotonic() + RUN_BUDGET_S
    (HERE / "_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                            dir=HERE / "_work")
    spawner = Spawner()
    try:
        jobs = workloads.build(args.workload, args.seed, work)
        runner = Runner(spawner, args.seed, work, deadline)
        if args.trace:
            outcomes, problems, values = traced(runner, jobs)
        else:
            passes, setup = measure(runner, jobs, args.seconds)
            outcomes = [o for p in passes for o in p]
            values, problems = end_to_end(passes, setup), []
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    env = environment(args)
    env["passes"] = 1 if args.trace else len(passes)
    report(env, outcomes, values, declared, problems)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
