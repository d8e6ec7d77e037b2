"""One benchmark job in a fresh interpreter.

    python3 perfbench/child.py [--trace SPANS] JOB [ARGS...]

Jobs: ``descent`` (the criterion-6 grid), ``groupring`` (the criterion-9
grid), ``burnside MODELS.json`` (boundary calculus on generated models),
``qz`` (the Q/Z micro-batch), ``empty`` (start-up only) and, traced only,
``cli ARGV...`` (``birmod.cli.main`` in process).  The job's result goes
to stdout as JSON; with ``--trace`` the spans go to SPANS once the job has
finished.  Run with ``src`` on ``PYTHONPATH``.
"""

import contextlib
import importlib
import io
import json
import statistics
import sys
import time

import birmod.cli
from birmod import burnside, groupring, linalg, ops, symbols

# the package re-exports the function qz, which hides the module of that name
qz = importlib.import_module("birmod.qz")

from spans import Tracer, install
from workloads import DESCENT_GRID, DESCENT_KS


def descent():
    escapes = []
    for n, N, minus in DESCENT_GRID:
        escapes.extend(ops.descent_failures(n, N, minus, DESCENT_KS))
    return {"cells": len(DESCENT_GRID), "escapes": escapes}


def descent_replica(tracer):
    """``descent_failures`` rebuilt from public calls, one span per cell.

    Like the original it keeps the target relation matrices across cells
    and asks span membership once per modulus component of each image.
    """
    escapes = []
    relmats = {}
    for n, N, minus in DESCENT_GRID:
        with tracer.span("ops.descent"):
            for i, row in enumerate(symbols.relation_rows(n, N, minus)):
                for k in DESCENT_KS:
                    images = (("scale", ops.sigma_op(k, row)),
                              ("lift", ops.rho_op(k, row)),
                              ("torsion_shift", ops.e_op(k, row)))
                    for name, image in images:
                        for M, comp in ops.split_by_modulus(image).items():
                            key = (n, M, minus)
                            if key not in relmats:
                                relmats[key] = symbols.relation_matrix(*key)
                            rm = relmats[key]
                            vec = rm.vectorize(comp)
                            if vec is None or not linalg.in_span(vec, rm.mat):
                                escapes.append({"row": i, "k": k, "op": name,
                                                "target_modulus": M,
                                                "component": comp.to_json()})
    return {"cells": len(DESCENT_GRID), "escapes": escapes}


def groupring_grid():
    """The criterion-9 grid: scalar and shift laws, and the bridge."""
    QZ = qz.QZ
    gr = groupring
    points = [QZ(p, q) for q in range(1, 13) for p in range(q)
              if QZ(p, q).order == q]
    failures = 0
    for r in points:
        x = gr.GroupRingElem.of(r)
        for n in range(1, 7):
            failures += gr.gr_sigma(n, gr.gr_rho(n, x)) != n * x
            shift = gr.GroupRingElem({r + t: 1 for t in qz.torsion(n)})
            failures += gr.gr_rho(n, gr.gr_sigma(n, x)) != shift
    scale_cases = 0
    for r in points:
        if r.order < 2:
            continue
        xs = symbols.FormalSum.of(symbols.canonicalize([r]))
        for k in range(2, 7):
            failures += (gr.bridge(ops.rho_op(k, xs))
                         != gr.gr_rho(k, gr.bridge(xs)))
            sx = ops.sigma_op(k, xs)
            if not sx.is_zero():
                scale_cases += 1
                failures += gr.bridge(sx) != gr.gr_sigma(k, gr.bridge(xs))
    return {"points": len(points), "scale_cases": scale_cases,
            "failures": failures}


def _model(spec):
    strata = {frozenset(key): burnside.Stratum(name, dim)
              for key, name, dim in spec["strata"]}
    return burnside.Model(spec["dim"], list(spec["labels"]), strata,
                          name=spec["name"])


def snc_models(path):
    """Boundaries, gradings, rewrites, pushforwards, actions and towers."""
    with open(path) as fh:
        data = json.load(fh)
    strata = violations = cycle_failures = 0
    sums = [0, 0, 0, 0]
    for spec in data["models"]:
        model = _model(spec)
        strata += len(model.strata)
        bd = burnside.boundary_snc(model)
        violations += len(burnside.check_grading(bd, model.dim - 1))
        rules = burnside.RewriteRules([tuple(r) for r in spec["rules"]])
        labels = spec["labels"]
        act = burnside.CyclicAction(len(labels), {
            lab: labels[(i + spec["shift"]) % len(labels)]
            for i, lab in enumerate(labels)})
        moved = act.act(bd)
        back = moved
        for _ in range(len(labels) - 1):
            back = act.act(back)
        cycle_failures += back != bd
        images = (bd, rules.apply_elem(bd),
                  burnside.pushforward(bd, spec["relabel"], rules), moved)
        for j, elem in enumerate(images):
            sums[j] += sum(elem.terms.values())
    towers_ok = 0
    for spec in data["towers"]:
        edges = {key: None if val is None else burnside.BurnGen(val[0], 0,
                                                                val[1], val[2])
                 for key, val in spec["edges"].items()}
        towers_ok += burnside.tower_boundary_check(
            _model(spec["big"]), _model(spec["small"]), edges).ok
    return {"models": len(data["models"]), "strata": strata,
            "coeff_sums": sums, "grading_violations": violations,
            "action_cycle_failures": cycle_failures,
            "towers": len(data["towers"]), "towers_ok": towers_ok}


def run_cli(argv):
    """``birmod.cli.main`` in this process: exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = birmod.cli.main(argv)
    return code, buf.getvalue()


QZ_MODULI = (2, 3, 4, 5, 6, 7, 8, 36, 61, 97)
QZ_KS = (2, 3, 4, 5)


def qz_batch(repeats=11):
    """Nanoseconds per Q/Z add, scale and preimage call, median of passes.

    The batch is every element of Q/Z with a modulus the workloads use.
    Each preimage pass starts from an empty cache when there is one, so
    the figure is the cost of the computation, not of a lookup.
    """
    elems = [qz.QZ(j, m) for m in QZ_MODULI for j in range(m)]
    others = elems[1:] + elems[:1]
    clear = getattr(qz.preimages, "cache_clear", lambda: None)

    def per_op(fn, ops_count, before=lambda: None):
        samples = []
        for _ in range(repeats):
            before()
            t0 = time.perf_counter_ns()
            fn()
            samples.append((time.perf_counter_ns() - t0) / ops_count)
        return statistics.median(samples)

    return {
        "add_ns": per_op(lambda: [a + b for a, b in zip(elems, others)],
                         len(elems)),
        "scale_ns": per_op(lambda: [a * k for a in elems for k in QZ_KS],
                           len(elems) * len(QZ_KS)),
        "preimages_ns": per_op(
            lambda: [qz.preimages(a, k) for a in elems for k in QZ_KS],
            len(elems) * len(QZ_KS), clear),
    }


def main(argv):
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    job, args = argv[0], argv[1:]
    tracer = None
    if spans_path:
        tracer = Tracer()
        install(tracer)
    code = 0
    if job == "cli" and tracer:
        code, text = run_cli(args)
        sys.stdout.write(text)
        doc = None
    elif job == "qz":
        doc = qz_batch()
    elif job == "empty":
        doc = {}
    elif job == "descent":
        doc = descent_replica(tracer) if tracer else descent()
    elif job == "groupring":
        doc = groupring_grid()
    elif job == "burnside":
        doc = snc_models(args[0])
    else:
        print("unknown job %r" % job, file=sys.stderr)
        return 2
    if doc is not None:
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
