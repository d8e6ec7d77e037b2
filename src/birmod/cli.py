"""Command line front end.

Commands print short text reports by default; --json switches to a JSON
document (sorted keys, two-space indent, trailing newline) carrying the
tool name and version, byte-stable across runs.  Exit status 0 means the
requested checks all passed, 1 means some verified identity failed, 2
means the input could not be used.
"""

import argparse
import json
import sys

from . import __version__
from .burnside import (boundary_snc, check_grading, edges_from_json,
                       model_from_json, pushforward, RewriteRules,
                       tower_boundary_check)
from .diagram import (build_equivariant_diagram, build_pairs_diagram,
                      CatPresentation, check_poset_in_groupoids, quotient_T)
from .ops import check_laws, e_op, rho_hat_op, rho_op, sigma_op
from .symbols import relation_matrix, sum_from_json


def _emit_json(payload):
    doc = {"tool": "birmod", "version": __version__}
    doc.update(payload)
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read_json(path):
    """Parse a JSON input; nesting too deep for the parser is bad input."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("input %s nests too deeply" % path) from None


def cmd_rank(args):
    rm = relation_matrix(args.n, args.N, args.minus)
    payload = {
        "n": args.n,
        "N": args.N,
        "minus": args.minus,
        "basis": len(rm.codes),
        "relations": rm.mat.nrows,
        "rank": rm.quotient_rank(),
    }
    if args.ring == "z":
        payload["invariant_factors"] = list(rm.invariant_factors())
    if args.json:
        _emit_json(payload)
    else:
        print("basis %d" % payload["basis"])
        print("rank %d" % payload["rank"])
        if "invariant_factors" in payload:
            print("invariant factors (%s)"
                  % ", ".join(str(d) for d in payload["invariant_factors"]))
    return 0


_APPLY_OPS = {"sigma": sigma_op, "rho": rho_op, "ek": e_op,
              "rhohat": lambda k, x: rho_hat_op(k, x.to_rational())}


def cmd_apply(args):
    name, sep, karg = args.op.partition(":")
    if not sep:
        raise ValueError("operator spec must look like name:k")
    k = int(karg)
    if name not in _APPLY_OPS:
        raise ValueError("unknown operator %r" % name)
    result = _APPLY_OPS[name](k, sum_from_json(_read_json(args.input)))
    to_file = args.out and args.out != "-"
    # the result is sorted once: into JSON, or into its text form
    if not (args.json or to_file):
        print(repr(result))
        return 0
    body = result.to_json()
    if to_file:
        with open(args.out, "w") as fh:
            json.dump(body, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.json:
        _emit_json({"op": args.op, "result": body})
    return 0


def cmd_laws(args):
    ks = tuple(int(p) for p in args.ks.split(",") if p.strip())
    report = check_laws(args.suite, args.max_n, args.max_N, ks)
    if args.json:
        _emit_json(report.to_json())
    else:
        for law in report.laws:
            print("%s checked %d failures %d"
                  % (law.law, law.checked, law.failures))
        for key, val in sorted(report.info.items()):
            if isinstance(val, list):
                print("info %s: %d entries" % (key, len(val)))
            else:
                print("info %s: %s" % (key, val))
    return 0 if report.failures_total == 0 else 1


def _load_rules(path):
    return RewriteRules.from_json(_read_json(path)) if path else None


def cmd_burnside(args):
    if args.mode == "boundary":
        model = model_from_json(_read_json(args.model))
        elem = boundary_snc(model)
        rules = _load_rules(args.rules)
        if rules is not None:
            elem = rules.apply_elem(elem)
        bad = check_grading(elem, model.dim - 1)
        if args.json:
            _emit_json({"model": model.name, "boundary": elem.to_json(),
                        "grading_violations": [g.to_json() for g in bad]})
        else:
            print(repr(elem))
            if bad:
                print("grading violations: %d" % len(bad))
        return 0 if not bad else 1
    if args.mode == "pushforward":
        model = model_from_json(_read_json(args.model))
        elem = boundary_snc(model)
        res = pushforward(elem, _read_json(args.map), _load_rules(args.rules))
        if args.json:
            _emit_json({"model": model.name, "pushforward": res.to_json()})
        else:
            print(repr(res))
        return 0
    big = model_from_json(_read_json(args.big))
    small = model_from_json(_read_json(args.small))
    edges = edges_from_json(_read_json(args.edges))
    res = tower_boundary_check(big, small, edges, _load_rules(args.rules))
    if args.json:
        _emit_json(res.to_json())
    else:
        print("tower check:", "pass" if res.ok else "fail")
    return 0 if res.ok else 1


def _write_dot(dia, path):
    if path:
        with open(path, "w") as fh:
            fh.write(dia.export_dot() + "\n")


def cmd_diagram(args):
    if args.fstar_shift is not None and args.kind != "pairs":
        raise ValueError("--fstar-shift applies to pairs diagrams only")
    data = _read_json(args.input)
    if args.kind == "category":
        cat = CatPresentation.from_json(data)
        verdict = check_poset_in_groupoids(cat)
        quot = quotient_T(cat)
        _write_dot(quot.to_diagram(), args.dot)
        if args.json:
            _emit_json({"poset_in_groupoids": verdict.to_json(),
                        "quotient": quot.to_json()})
        else:
            print("poset-in-groupoids:", "pass" if verdict.ok else "fail")
            print("classes %d edges %d" % (len(quot.classes),
                                           len(quot.edges)))
        return 0 if verdict.ok or not args.strict else 1
    if args.fstar_shift is not None:
        data = {**data, "fstar_shift": args.fstar_shift}
    if args.kind == "pairs":
        dia = build_pairs_diagram(data)
    else:
        dia = build_equivariant_diagram(data)
    _write_dot(dia, args.dot)
    if args.json:
        _emit_json({"kind": args.kind, "vertices": dia.vertex_count(),
                    "edges": dia.edge_count(), "diagram": dia.to_json()})
    else:
        print("vertices %d edges %d" % (dia.vertex_count(),
                                        dia.edge_count()))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="birmod",
        description="exact calculus of birational modular symbols")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("rank", help="present a symbol module and rank it")
    p.add_argument("--n", type=int, required=True, help="symbol arity")
    p.add_argument("--N", type=int, required=True, help="torsion modulus")
    p.add_argument("--minus", action="store_true",
                   help="also quotient by entrywise negation")
    p.add_argument("--ring", choices=["q", "z"], default="q",
                   help="z adds the integral invariant factors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("apply", help="apply one operator to a formal sum")
    p.add_argument("--op", required=True,
                   help="operator spec: sigma:k | rho:k | rhohat:k | ek:k")
    p.add_argument("--input", default="-",
                   help="formal sum JSON file, - for stdin")
    p.add_argument("--out", help="write the resulting sum to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("laws", help="verify an operator-law suite")
    p.add_argument("--suite", required=True,
                   choices=["lemma48", "ringhom", "coalg"])
    p.add_argument("--max-n", type=int, default=2, dest="max_n")
    p.add_argument("--max-N", type=int, default=6, dest="max_N")
    p.add_argument("--ks", default="2,3",
                   help="comma separated operator indices")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("burnside", help="boundary classes of models")
    p.add_argument("mode", choices=["boundary", "pushforward", "tower"])
    p.add_argument("--model", help="model JSON (boundary, pushforward)")
    p.add_argument("--map", help="target relabeling JSON (pushforward)")
    p.add_argument("--rules", help="rewrite rules JSON")
    p.add_argument("--big", help="big model JSON (tower)")
    p.add_argument("--small", help="small model JSON (tower)")
    p.add_argument("--edges", help="edge map JSON (tower)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_burnside)

    p = sub.add_parser("diagram", help="index diagrams and categories")
    p.add_argument("kind", choices=["pairs", "equivariant", "category"])
    p.add_argument("--input", default="-")
    p.add_argument("--dot", help="write graphviz text to this file")
    p.add_argument("--fstar-shift", type=int, choices=[0, 1], default=None,
                   dest="fstar_shift")
    p.add_argument("--strict", action="store_true",
                   help="category kind: failing verdict exits nonzero")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diagram)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
