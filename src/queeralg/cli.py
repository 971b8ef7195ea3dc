"""Command-line front door: verification suites, classification tables,
weight tables and product/Schur reports, in plain text or structured JSON
with exact scalar strings.  Identical inputs produce byte-identical
structured reports."""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .cartanmod import CartanAlgebra, PsiFunctional
from .coeffalg import algebra_from_spec, gamma_from_spec, preset_base_field
from .hwmod import simple_quotient
from .mapsuper import invariants, tensor_lie
from .products import (Catalog, classify_enumerate, hat_tensor_weight,
                       outer_factors, q1_module, weight_schur_data)
from .queer import build_q
from .scalars import Tower
from .verify import SUITES, run_suites

USAGE_EXIT = 2
FAILURE_EXIT = 1
# largest --n accepted: q(n) has dimension 2(n+1)^2 - 2 and its bracket
# table that dimension squared entries (q(40) would need 11.3 million)
MAX_N = 12


def _emit(report: dict, text_lines, fmt: str, out_path):
    if fmt == "structured":
        payload = json.dumps(report, sort_keys=True, indent=1) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _warning_line(message, category, filename, lineno, file=None,
                  line=None):
    """Show a warning as one "warning: ..." line, without the source
    location (the warnings.showwarning signature)."""
    print(f"warning: {message}", file=sys.stderr)


def _load_json(path: str) -> dict:
    """The JSON object in path; anything else is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"error: {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise SystemExit(f"error: {path}: expected a JSON object, "
                         f"not a {type(spec).__name__}")
    return spec


def _parse(path: str, build, *args):
    """build(*args) on data read from path; an input of the wrong shape
    (a missing key, a value of the wrong type) is a usage error."""
    try:
        return build(*args)
    except KeyError as exc:
        raise SystemExit(f"error: {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: {path}: {exc}") from exc


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = run_suites(names, args.seed)
    report["command"] = "verify"
    report["suite"] = args.suite
    lines = [f"verification suites (seed {args.seed})"]
    for suite in report["suites"]:
        lines.append(f"[{suite['name']}]")
        for c in suite["checks"]:
            mark = "ok  " if c["passed"] else "FAIL"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            lines.append(f"  {mark} {c['name']}{detail}")
    lines.append(f"failures: {report['failures']}")
    _emit(report, lines, args.format, args.out)
    return 0 if report["failures"] == 0 else FAILURE_EXIT


def cmd_classify(args) -> int:
    tower = Tower()
    qd = build_q(tower, args.n)
    alg = _parse(args.algebra, algebra_from_spec, tower,
                 _load_json(args.algebra)) if args.algebra \
        else preset_base_field(tower)
    catalog = Catalog(qd)
    wanted = [s for s in args.catalog.split(",") if s]
    if not wanted:
        print("error: --catalog names no entry", file=sys.stderr)
        return USAGE_EXIT
    for i, name in enumerate(wanted):
        if name in wanted[:i]:
            print(f"error: catalog entry {name!r} is named twice",
                  file=sys.stderr)
            return USAGE_EXIT
        if name not in catalog.entries:
            print(f"error: unknown catalog entry {name!r} "
                  f"(available: {', '.join(catalog.names())})",
                  file=sys.stderr)
            return USAGE_EXIT
    for name in list(catalog.entries):
        if name not in wanted:
            catalog.entries.pop(name)
    ms = tensor_lie(qd, alg)
    inv = None
    if args.group:
        act = _parse(args.group, gamma_from_spec, tower,
                     _load_json(args.group), alg, qd)
        # a free action has orbits of |Gamma| points, so a larger declared
        # order is refused before the group is enumerated
        if act.order > len(alg.eval_functionals):
            raise ValueError(
                "freeness violated: every orbit of a free action of a group "
                f"of order {act.order} has {act.order} points, more than the "
                f"{len(alg.eval_functionals)} declared")
        inv = invariants(ms, act)
    rep = classify_enumerate(ms, catalog, inv=inv)
    rows = []
    for r in rep["rows"]:
        rows.append({
            "assignment": {str(k): v for k, v in sorted(r.assignment.items())},
            "dim": r.dim,
            "graded_dims": list(r.graded_dims),
            "irreducible": r.irreducible,
            "schur_factor_types": ["Q" if q else "M" for q in r.schur_types],
            "support": r.support,
            "annihilator_basis": r.ann_basis,
            "reduced_support": r.reduced,
            "top_weight": list(r.top_weight),
        })
    report = {"command": "classify", "n": args.n,
              "twisted": rep["twisted"], "catalog": rep["catalog"],
              "pairwise_distinct": rep["pairwise_distinct"], "rows": rows}
    lines = [f"classification over q({args.n}), "
             f"{'twisted' if rep['twisted'] else 'untwisted'}",
             f"catalog: {', '.join(rep['catalog'])}",
             f"{'assignment':40s} {'dim':>5s} {'even|odd':>9s} "
             f"{'support':>10s} reduced"]
    for r in rows:
        assign = ",".join(f"{k}:{v}" for k, v in r["assignment"].items())
        lines.append(f"{assign:40s} {r['dim']:5d} "
                     f"{r['graded_dims'][0]:4d}|{r['graded_dims'][1]:<4d} "
                     f"{str(r['support']):>10s} {r['reduced_support']}")
    lines.append(f"all irreducible, pairwise non-isomorphic: "
                 f"{rep['pairwise_distinct']}")
    _emit(report, lines, args.format, args.out)
    return 0


def cmd_dims(args) -> int:
    if args.depth is not None and args.depth < 0:
        print(f"error: --depth must be nonnegative, not {args.depth}",
              file=sys.stderr)
        return USAGE_EXIT
    tower = Tower()
    qd = build_q(tower, args.n)
    spec = _load_json(args.psi)
    alg = _parse(args.psi, algebra_from_spec, tower, spec["algebra"]) \
        if "algebra" in spec else preset_base_field(tower)
    ctx = CartanAlgebra(qd, alg)
    psi = _parse(args.psi, PsiFunctional.from_pairs, ctx,
                 spec.get("values", []))
    ms = tensor_lie(qd, alg)
    sq = simple_quotient(ms, psi, args.depth)
    vm = sq.verma
    rows = []
    for beta, d in vm.dims_by_weight().items():
        if sq.quot_dims[beta] == 0 and sum(beta) > 0:
            continue
        rows.append({"weight_coords": list(beta),
                     "induced_dim": d,
                     "simple_dim": sq.quot_dims[beta],
                     "singular_dim": sq.singular_dims[beta]})
    report = {"command": "dims", "n": args.n, "depth": vm.depth,
              "conclusive": sq.conclusive,
              "highest_weight_dim": vm.h_mod.dim,
              "total_simple_dim": sum(r["simple_dim"] for r in rows),
              "rows": rows}
    lines = [f"weight table for q({args.n}), depth {vm.depth} "
             f"(conclusive: {sq.conclusive})",
             f"{'weight':>12s} {'induced':>8s} {'simple':>7s} {'singular':>9s}"]
    for r in rows:
        lines.append(f"{str(tuple(r['weight_coords'])):>12s} "
                     f"{r['induced_dim']:8d} {r['simple_dim']:7d} "
                     f"{r['singular_dim']:9d}")
    lines.append(f"total simple dim: {report['total_simple_dim']}")
    _emit(report, lines, args.format, args.out)
    return 0


def _decompose_factor(tower, catalog, name):
    """(module, WeightSchur) of a decompose factor."""
    if name == "qone":
        m = q1_module(tower)
        return m, weight_schur_data(m)
    if name in catalog.entries:
        return catalog.module(name), catalog.weight_schur(name)
    raise SystemExit(f"error: unknown factor {name!r} "
                     f"(catalog: {', '.join(catalog.names())}, qone)")


def cmd_decompose(args) -> int:
    tower = Tower()
    qd = build_q(tower, args.n)
    catalog = Catalog(qd)
    names = [s for s in args.factors.split(",") if s]
    if len(names) < 2:
        print("error: need at least two factors", file=sys.stderr)
        return USAGE_EXIT
    factors, schurs = zip(*(_decompose_factor(tower, catalog, n)
                            for n in names))
    steps = []
    cur, cur_s = factors[0], schurs[0]
    for name, f, s in zip(names[1:], factors[1:], schurs[1:]):
        prod, info = hat_tensor_weight(*outer_factors(cur, f, cur_s, s))
        steps.append({
            "factor": name,
            "split": info["split"],
            "dims": [cur.dim, f.dim, prod.dim],
            "halves": [info["plus"].dim, info["minus"].dim]
            if info["split"] else None,
        })
        cur, cur_s = prod, info["result_schur"]
    report = {"command": "decompose", "n": args.n, "factors": names,
              "factor_schur_types": ["Q" if s.is_type_q else "M"
                                     for s in schurs],
              "steps": steps, "result_dim": cur.dim}
    lines = [f"irreducible product over q({args.n}) factors: "
             + ", ".join(names),
             "factor Schur types: "
             + ", ".join("Q" if s.is_type_q else "M" for s in schurs)]
    for st in steps:
        if st["split"]:
            lines.append(f"  (x) {st['factor']}: tensor "
                         f"{st['dims'][0]}x{st['dims'][1]} splits "
                         f"V({st['halves'][0]}) (+) V({st['halves'][1]})")
        else:
            lines.append(f"  (x) {st['factor']}: tensor "
                         f"{st['dims'][0]}x{st['dims'][1]} irreducible, "
                         f"dim {st['dims'][2]}")
    lines.append(f"result dim: {cur.dim}")
    _emit(report, lines, args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="queeralg",
        description="Exact computations with queer Lie superalgebras, their "
                    "map superalgebras and finite-dimensional modules.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "structured"),
                        default="text")
        sp.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="run named verification suites")
    pv.add_argument("suite", choices=tuple(SUITES) + ("all",))
    pv.add_argument("--seed", type=int, default=7)
    common(pv)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("classify",
                        help="enumerate irreducible modules over the preset")
    pc.add_argument("--n", type=int, default=2)
    pc.add_argument("--algebra", default=None,
                    help="JSON preset file; default is the base field")
    pc.add_argument("--group", default=None, help="JSON group-action file")
    pc.add_argument("--catalog", default="trivial,adjoint")
    common(pc)
    pc.set_defaults(func=cmd_classify)

    pd = sub.add_parser("dims", help="weight table of a truncated module")
    pd.add_argument("--n", type=int, default=2)
    pd.add_argument("--psi", required=True, help="JSON functional file")
    pd.add_argument("--depth", type=int, default=None)
    common(pd)
    pd.set_defaults(func=cmd_dims)

    pq = sub.add_parser("decompose",
                        help="Schur/product report for catalog factors")
    pq.add_argument("--n", type=int, default=2)
    pq.add_argument("--factors", required=True,
                    help="comma-separated catalog names (or 'qone')")
    common(pq)
    pq.set_defaults(func=cmd_decompose)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    if getattr(args, "n", 1) < 1:
        print(f"error: --n must be at least 1, not {args.n}", file=sys.stderr)
        return USAGE_EXIT
    if getattr(args, "n", 1) > MAX_N:
        print(f"error: --n must be at most {MAX_N}, not {args.n}",
              file=sys.stderr)
        return USAGE_EXIT
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return USAGE_EXIT
        return exc.code if exc.code is not None else 0
    except (ValueError, AssertionError) as exc:
        # a failed check or validation, such as a reducible catalog entry
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
