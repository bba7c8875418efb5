"""Command-line interface.

Exit codes: 0 verified success, 1 verification failure (JSON verdict on
stdout), 2 usage or input error.
"""

import argparse
import contextlib
import functools
import json
import sys

from . import catalog, chamber, covers, coxeter, verify
from .errors import ChambersError


def _load_json(path):
    """The JSON value in the file `path`, or on stdin for "-".  Nesting too
    deep for the decoder is an input error, not a crash."""
    with contextlib.nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply to read") from None


def _write(text, out=None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj, out=None):
    _write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", out)


def cmd_list(args):
    for name in sorted(catalog.CATALOG):
        e = catalog.CATALOG[name]
        line = f"{name:22s} {e.description} (expect {e.expected})"
        if e.note:
            line += f" [note: {e.note}]"
        print(line)
    return 0


def cmd_build(args):
    entry = catalog.CATALOG.get(args.name)
    if entry is None:
        print(f"unknown catalog entry {args.name!r}; try 'list'", file=sys.stderr)
        return 2
    try:
        artifacts = catalog.build(args.name)
    except ChambersError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc), "name": args.name})
        return 1
    _emit(chamber.system_to_json(artifacts["system"]), args.out)
    return 0


def _vertex_labels(C, labels, vertices):
    """Per (type, id) vertex, the common type-th entry of its chambers'
    labels; None unless every label is a list or tuple of length rank and
    its chambers agree.  A catalog system's tuples and a parsed file's
    lists give the same names."""
    if labels is None or not all(
            isinstance(x, (list, tuple)) and len(x) == C.rank for x in labels):
        return [None] * len(vertices)
    verts = chamber.chamber_vertices(C)
    out = []
    for t, k in vertices:
        labs = [labels[c][t - 1] for c, vs in enumerate(verts) if vs[t - 1] == k]
        out.append(labs[0] if all(x == labs[0] for x in labs) else None)
    return out


def cmd_check(args):
    C = chamber.system_from_json(_load_json(args.file))
    roles = [t for t in (args.points, args.lines) if t is not None]
    if args.ll and roles and (len(set(roles)) < 2 or not set(roles) <= set(C.types)):
        print(f"--points/--lines must be two different types in 1..{C.rank}", file=sys.stderr)
        return 2
    verdict = {}
    failed = False
    try:
        M = chamber.infer_type_matrix(C)
        verdict["type"] = coxeter.matrix_name(M)
        verdict["type_matrix"] = [list(r) for r in M.rows]
    except ChambersError as exc:
        M = None
        verdict["type"] = None
        verdict["type_matrix"] = None
        verdict["type_error"] = f"{type(exc).__name__}: {exc}"
    if args.ll and M is not None and M.rank == 3 and not roles:
        try:
            roles = verify.c3_roles(M)[:2]
        except ValueError:
            print("--ll needs --points/--lines when the type is not C3-shaped", file=sys.stderr)
            return 2
    if args.building:
        if M is None:
            verdict["building"] = False
            failed = True
        else:
            ok, report = verify.is_building(C, M, budget=args.budget)
            verdict["building"] = ok
            verdict["violations"] = report["violations"]
            failed |= not ok
    if args.ll:
        if M is None or M.rank != 3:
            verdict["ll"] = {"holds": False, "error": "no rank-3 type matrix"}
            failed = True
        else:
            holds, witness = verify.check_LL(C, *roles)
            if witness is not None:
                described = [{"type": t, "id": k, "label": lab}
                             for (t, k), lab in zip(witness, _vertex_labels(C, C.labels, witness))]
                witness = {"points": described[:2], "lines": described[2:]}
            verdict["ll"] = {"holds": holds, "witness": witness}
            failed |= not holds
    if args.c3:
        ok, report = verify.is_c3_geometry(C)
        verdict["c3"] = ok
        verdict["c3_report"] = {k: v for k, v in report.items() if k != "witness"}
        failed |= not ok
    if args.simplicial:
        ok, witness = chamber.is_simplicial(C)
        verdict["simplicial"] = ok
        verdict["simplicial_witness"] = witness if witness is None else list(map(str, witness))
        failed |= not ok
    _emit(verdict)
    return 1 if failed else 0


def cmd_cover(args):
    C = chamber.system_from_json(_load_json(args.file))
    res = covers.universal_cover(C, c0=args.base_chamber, max_chambers=args.max_chambers)
    out = {"truncated": res.truncated}
    if not res.truncated:
        p = res.covering
        out.update({
            "chambers": p.cover.n,
            "fiber_size": p.chamber_map.count(res.base_chamber),
            "deck_order": len(res.deck),
            "regular": res.regular,
            "base": chamber.system_to_json(p.base),
            "cover": chamber.system_to_json(p.cover),
            "map": list(p.chamber_map),
            "deck": [list(d) for d in res.deck],
        })
    _emit(out, args.out)
    return 1 if res.truncated else 0


def cmd_quotient(args):
    C = chamber.system_from_json(_load_json(args.file))
    gens = _load_json(args.auto)["generators"]
    try:
        Q, proj = chamber.quotient(C, gens)
    except ChambersError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 1
    _emit({"quotient": chamber.system_to_json(Q), "projection": list(proj)}, args.out)
    return 0


def cmd_coxeter(args):
    M = coxeter.matrix_from_json(_load_json(args.matrix))
    if args.order:
        try:
            table = coxeter.group_table(M)
        except ChambersError as exc:
            _emit({"error": type(exc).__name__, "detail": str(exc)})
            return 1
        print(table.order)
        return 0
    if args.complex:
        try:
            C = coxeter.coxeter_complex(M)
        except ChambersError as exc:
            _emit({"error": type(exc).__name__, "detail": str(exc)})
            return 1
        _emit(chamber.system_to_json(C), args.out)
        return 0
    print("coxeter needs --order or --complex", file=sys.stderr)
    return 2


def cmd_report(args):
    C = chamber.system_from_json(_load_json(args.file))
    if args.format == "json":
        _emit(chamber.system_to_json(C), args.out)
    else:
        _write(chamber.incidence_dot(C) if args.incidence else chamber.adjacency_dot(C),
               args.out)
    return 0


@functools.lru_cache(maxsize=None)
def make_parser():
    """The one parser of this process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="chambers",
                                 description="finite chamber systems and their verification")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog geometries").set_defaults(fn=cmd_list)

    p = sub.add_parser("build", help="build a catalog geometry as JSON")
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("check", help="verify a chamber system")
    p.add_argument("file", help="system JSON path, or - for stdin")
    p.add_argument("--building", action="store_true")
    p.add_argument("--ll", action="store_true")
    p.add_argument("--c3", action="store_true")
    p.add_argument("--simplicial", action="store_true")
    p.add_argument("--points", type=int,
                   help="point type for --ll, given with --lines; default: a C3 type's own")
    p.add_argument("--lines", type=int,
                   help="line type for --ll, given with --points; default: a C3 type's own")
    p.add_argument("--budget", type=int, default=2000,
                   help="chamber count above which --building refuses")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("cover", help="universal 2-cover")
    p.add_argument("file")
    p.add_argument("--base-chamber", type=int, default=0,
                   help="chamber in 0..n-1 the cover is based at (default 0)")
    p.add_argument("--max-chambers", type=int, default=10 ** 6,
                   help="budget on the gluer's live union-find nodes (default 1000000), "
                        "which can exceed the cover's chambers: neumaier-a7 needs 2835 "
                        "for 315; over budget prints {\"truncated\":true} and exits 1")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("quotient", help="quotient by a free automorphism group")
    p.add_argument("file")
    p.add_argument("--auto", required=True, help="JSON with chamber-permutation generators")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("coxeter", help="Coxeter group utilities")
    p.add_argument("--matrix", required=True)
    p.add_argument("--order", action="store_true")
    p.add_argument("--complex", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_coxeter)

    p = sub.add_parser("report", help="emit a system as JSON or DOT")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--incidence", action="store_true",
                   help="emit the rank-2 incidence graph instead of adjacency")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ChambersError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
