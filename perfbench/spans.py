"""Spans around the public calls of each birmod module, and their sums.

A traced job wraps the public functions and methods listed in ``TRACED``
in every loaded birmod module, so calls between layers are recorded too.
The wrappers live here, in the benchmark; the program is not changed.
A span is ``[name, start_ns, end_ns, parent_index, counts]``; spans are
kept in memory and written once when the job ends.  Counters are taken
after a span closes, inside a ``bench.count`` span of their own, so they
are not charged to the layer they describe.
"""

import contextlib
import functools
import sys
import time

from workloads import rows_generated


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, time.perf_counter_ns(), 0, parent, None]
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``name`` may be a function of the args."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if count is not None:
                box = self.open("bench.count")
                rec[4] = count(result, *args, **kwargs)
                self.close(box)
            return result
        return traced


def _rows(result, n, N, minus=False):
    return {"rows_generated": rows_generated(n, N, minus),
            "rows_kept": len(result)}


def _echelon(result, self, rows, ncols):
    bits = [abs(v).bit_length() for _, _, prow in self.pivots
            for v in prow.values()]
    return {"nnz": sum(len(r) for r in rows), "pivots": len(self.pivots),
            "pivot_nnz": len(bits), "max_coeff_bits": max(bits, default=0)}


def _terms(result, *args, **kwargs):
    return {"terms_out": len(result.terms)}


def _split_terms(result, fs):
    return {"terms_out": sum(len(part.terms) for part in result.values())}


def _delta_terms(result, *args, **kwargs):
    return {"terms_out": sum(len(b) for b in result.buckets.values())}


def _law_checks(report, *args, **kwargs):
    return {"law_checks": sum(l.checked for l in report.laws)}


# (module, attribute or Class.method, span name, counter)
TRACED = [
    ("symbols", "enumerate_symbols", "symbols.enumerate", None),
    ("symbols", "relation_rows", "symbols.relation_rows", _rows),
    ("symbols", "RelationMatrix.__init__", "symbols.relation_matrix",
     lambda r, self, *a, **k: {"basis": len(self.basis)}),
    ("symbols", "RelationMatrix.contains", "symbols.contains", None),
    ("linalg", "Echelon.__init__", "linalg.echelon", _echelon),
    ("linalg", "Echelon.contains", "linalg.contains", None),
    ("linalg", "snf", "linalg.snf",
     lambda r, mat, *a, **k: {"snf_cols": mat.ncols}),
    ("ops", "sigma_op", "ops.sigma", _terms),
    ("ops", "rho_op", "ops.rho", _terms),
    ("ops", "rho_hat_op", "ops.rhohat", _terms),
    ("ops", "e_op", "ops.e", _terms),
    ("ops", "nabla_op", "ops.nabla", _terms),
    ("ops", "delta_op", "ops.delta", _delta_terms),
    ("ops", "split_by_modulus", "ops.split", _split_terms),
    ("ops", "check_laws", lambda suite, *a, **k: "ops.check_laws." + suite,
     _law_checks),
    ("ops", "descent_failures", "ops.descent", None),
    ("groupring", "gr_sigma", "groupring.sigma", None),
    ("groupring", "gr_rho", "groupring.rho", None),
    ("groupring", "bridge", "groupring.bridge", None),
    ("burnside", "Model.__init__", "burnside.model", None),
    ("burnside", "boundary_snc", "burnside.boundary",
     lambda r, model, *a, **k: {"strata": len(model.strata)}),
    ("burnside", "check_grading", "burnside.grading", None),
    ("burnside", "RewriteRules.__init__", "burnside.rewrite", None),
    ("burnside", "RewriteRules.apply_elem", "burnside.rewrite", None),
    ("burnside", "pushforward", "burnside.pushforward", None),
    ("burnside", "CyclicAction.__init__", "burnside.action", None),
    ("burnside", "CyclicAction.act", "burnside.action", None),
    ("burnside", "tower_boundary_check", "burnside.tower", None),
    ("diagram", "CatPresentation.__init__", "diagram.cat_build", None),
    ("diagram", "check_poset_in_groupoids", "diagram.poset_check", None),
    ("diagram", "quotient_T", "diagram.quotient", None),
    ("diagram", "build_equivariant_diagram", "diagram.equivariant", None),
    ("diagram", "Diagram.export_dot", "diagram.dot", None),
    ("cli", "main", "cli.main", None),
]


def install(tracer):
    """Replace every ``TRACED`` callable by its traced wrapper.

    A function is replaced in each loaded birmod module that holds it, so
    ``from .x import f`` copies are covered; a method on its class.
    """
    mods = [m for n, m in sys.modules.items()
            if n == "birmod" or n.startswith("birmod.")]
    for mod_name, attr, name, count in TRACED:
        owner = sys.modules["birmod." + mod_name]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), count))
            continue
        orig = getattr(owner, attr)
        traced = tracer.wrap(name, orig, count)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
