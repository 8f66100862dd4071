"""Command-line interface.

Subcommands:

* ``verify``            -- run named checks, print a summary, optionally
  write JSON/TSV reports or cProfile stats; exits nonzero when any check
  fails.
* ``census``            -- polynomial class-count table (TSV).
* ``hl-value``          -- one exact Hall-Littlewood principal value.
* ``degree-sum``        -- real character degree sum for a group family.
* ``involutions``       -- involution count for a group family.
* ``eps-split``         -- the two indicator-refined degree sums of U(n, q).
* ``brute-involutions`` -- enumerate a small group directly.

Exact values print as integers (numeric q) or rational functions in q
(symbolic mode).
"""

from __future__ import annotations

import argparse
import ast
import operator
import sys
from functools import lru_cache

from . import chars, groups, verify
from .exact import RatFunc
from .hl import hl_principal
from .polycount import brute_poly_census, count_selfdual_and_pairs

_WEYL = {"weylA": "A", "weylB": "B", "weylD": "D"}


# ---------------------------------------------------------------------------
# Expression parsing for --z / --t values (integers, q, + - * / ^, parens).
# ---------------------------------------------------------------------------

_EXPR_CHARS = frozenset("0123456789q+-*/^() \t\n\r\f\v")
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def _eval(node) -> RatFunc:
    match node:
        case ast.BinOp(base, ast.Pow(), ast.Constant(k)) if type(k) is int:
            return _eval(base) ** k
        case ast.BinOp(base, ast.Pow(), ast.UnaryOp(ast.USub(), ast.Constant(k))):
            if type(k) is int:
                return _eval(base) ** -k
        case ast.BinOp(left, op, right) if type(op) in _BINOPS:
            return _BINOPS[type(op)](_eval(left), _eval(right))
        case ast.UnaryOp(ast.USub(), operand):
            return -_eval(operand)
        case ast.UnaryOp(ast.UAdd(), operand):
            return _eval(operand)
        case ast.Constant(k) if type(k) is int:
            return RatFunc.const(k)
        case ast.Name("q"):
            return RatFunc.x()
    raise ValueError(f"unexpected {ast.unparse(node)!r} (allowed: integers, q, "
                     f"+ - * /, ^ with an integer exponent, parentheses)")


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an exact rational-function expression in q, e.g. ``-1/q``."""
    bad = set(text) - _EXPR_CHARS
    if bad:
        raise ValueError(f"unexpected characters {sorted(bad)} in {text!r}")
    try:
        return _eval(ast.parse(" ".join(text.split()).replace("^", "**"),
                               mode="eval").body)
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {text!r}: {exc.msg}") from None
    except RecursionError:
        raise ValueError("expression is nested too deeply") from None


def _parse_int_list(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _parse_parts(text: str):
    parts = _parse_int_list(text)
    if any(p <= 0 for p in parts) or parts != sorted(parts, reverse=True):
        raise ValueError(f"partition parts must be positive and weakly "
                         f"decreasing, got {text!r}")
    return parts


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns a process exit code).
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.list:
        for spec in verify.REGISTRY.values():
            tags = ",".join(spec.tags)
            print(f"{spec.id:26s} [{tags}] {spec.description}")
        return 0
    overrides = {}
    if args.order is not None:
        overrides["order"] = args.order
    if args.nmax is not None:
        overrides["nmax"] = args.nmax
    if args.q is not None:
        overrides["qs"] = _parse_int_list(args.q)
    ids = None
    if args.id:
        ids = [part for chunk in args.id for part in chunk.split(",") if part]
    run = dict(ids=ids, tag=args.tag, overrides=overrides,
               budget="quick" if args.quick else "full")
    if args.profile:
        import cProfile  # only here, so a run without --profile never loads it

        profiler = cProfile.Profile()
        reports = profiler.runcall(verify.run_all, **run)
        profiler.dump_stats(args.profile)
    else:
        reports = verify.run_all(**run)
    for line in verify.summary_lines(reports):
        print(line)
    passed = sum(r.status == "pass" for r in reports)
    failed = sum(r.status == "fail" for r in reports)
    total_ms = sum(r.millis for r in reports)
    print(f"{passed} passed, {failed} failed ({total_ms} ms)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(verify.reports_to_json(reports) + "\n")
    if args.tsv:
        with open(args.tsv, "w", encoding="utf-8") as handle:
            handle.write(verify.reports_to_tsv(reports))
    return 1 if failed else 0


def _cmd_census(args) -> int:
    flavors = ("gl", "u") if args.flavor == "both" else (args.flavor,)
    sources = {"formula": ("formula",), "brute": ("brute",),
               "both": ("formula", "brute")}[args.source]
    qs = _parse_int_list(args.q)
    # every row is computed, and so every q validated, before any is printed
    rows = [(flavor, d, q, source,
             count_selfdual_and_pairs(d, q, flavor) if source == "formula"
             else brute_poly_census(d, q, flavor))
            for flavor in flavors for q in qs
            for d in range(1, args.dmax + 1) for source in sources]
    print("flavor\td\tq\tN\tNstar\tMstar\tsource")
    for flavor, d, q, source, counts in rows:
        print(f"{flavor}\t{d}\t{q}\t{counts.n_plain}"
              f"\t{counts.n_selfdual}\t{counts.m_pairs}\t{source}")
    return 0


def _cmd_hl_value(args) -> int:
    lam = _parse_parts(args.lam)
    z = parse_ratfunc(args.z)
    t = parse_ratfunc(args.t)
    print(hl_principal(lam, z, t))
    return 0


def _numeric_or_symbolic(args):
    """(q, parity) for the chars API; symbolic mode defaults to parity even."""
    if args.q is not None:
        return args.q, args.parity
    parity = args.parity or "even"
    return None, parity


def _require_scale(args, parser):
    if args.q is None and not args.symbolic:
        parser.error("need --q Q or --symbolic for this group")


def _cmd_degree_sum(args, parser) -> int:
    if args.group in _WEYL:
        print(chars.weyl_degree_sum(_WEYL[args.group], args.n))
        return 0
    _require_scale(args, parser)
    q, parity = _numeric_or_symbolic(args)
    print(chars.real_degree_sum_gf(args.group, args.n, q, parity))
    return 0


def _cmd_involutions(args, parser) -> int:
    if args.group in _WEYL:
        print(chars.weyl_involutions(_WEYL[args.group], args.n))
        return 0
    _require_scale(args, parser)
    q, parity = _numeric_or_symbolic(args)
    print(chars.involution_count(args.group, args.n, q, parity))
    return 0


def _cmd_eps_split(args, parser) -> int:
    _require_scale(args, parser)
    q, parity = _numeric_or_symbolic(args)
    plus, minus = chars.u_eps_sums_gf(args.n, q, parity)
    print(f"eps=+1\t{plus}")
    print(f"eps=-1\t{minus}")
    print(f"sum\t{plus + minus}")
    print(f"difference\t{plus - minus}")
    return 0


def _cmd_brute_involutions(args) -> int:
    order = groups.group_order(args.group, args.n, args.q)
    brute = groups.count_square_roots_of_identity(args.group, args.n, args.q)
    closed = chars.involution_count(args.group, args.n, args.q)
    print(f"group order\t{order}")
    print(f"involutions (enumerated)\t{brute}")
    print(f"involutions (closed form)\t{closed}")
    print(f"agreement\t{'yes' if brute == closed else 'NO'}")
    return 0 if brute == closed else 1


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def _add_scale_flags(sub):
    sub.add_argument("--q", type=int, default=None,
                     help="evaluate at this prime power")
    sub.add_argument("--symbolic", action="store_true",
                     help="keep q symbolic (exact rational function)")
    sub.add_argument("--parity", choices=("even", "odd"), default=None,
                     help="characteristic parity for symbolic mode "
                          "(default even)")


@lru_cache(maxsize=None)  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcharsum",
        description="Exact verification toolkit for real character degree "
                    "sums of finite general linear and unitary groups.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="run named checks")
    p.add_argument("--id", action="append", metavar="ID",
                   help="run only this check id (repeatable, comma-splittable)")
    p.add_argument("--tag", default=None, help="run only checks with this tag")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write a JSON report")
    p.add_argument("--tsv", default=None, metavar="PATH",
                   help="write a TSV report")
    p.add_argument("--order", type=int, default=None,
                   help="override series truncation order where applicable")
    p.add_argument("--nmax", type=int, default=None,
                   help="override maximum rank where applicable")
    p.add_argument("--q", default=None, metavar="LIST",
                   help="comma-separated numeric q values for the enumeration "
                        "oracles (oracle-real-sums, oracle-poly-census); the "
                        "product identities are checked at symbolic q only")
    p.add_argument("--quick", action="store_true",
                   help="use the quick parameter budget")
    p.add_argument("--list", action="store_true",
                   help="list check ids and descriptions, then exit")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="write cProfile stats of the checks run (read with pstats)")
    p.set_defaults(func=lambda a: _cmd_verify(a))

    p = subs.add_parser("census", help="polynomial class-count table")
    p.add_argument("--flavor", choices=("gl", "u", "both"), default="both")
    p.add_argument("--dmax", type=int, default=4, help="degrees 1..dmax")
    p.add_argument("--q", default="2,3,4,5", metavar="LIST",
                   help="comma-separated prime powers")
    p.add_argument("--source", choices=("formula", "brute", "both"),
                   default="formula")
    p.set_defaults(func=lambda a: _cmd_census(a))

    p = subs.add_parser("hl-value", help="exact Hall-Littlewood principal value")
    p.add_argument("--lam", "--lambda", dest="lam", required=True,
                   metavar="PARTS", help="partition, e.g. 2,1")
    p.add_argument("--z", required=True, help="geometric ratio, e.g. -1/q")
    p.add_argument("--t", required=True, help="deformation value, e.g. 1/q")
    p.set_defaults(func=lambda a: _cmd_hl_value(a))

    p = subs.add_parser("degree-sum", help="real character degree sum")
    p.add_argument("--group", required=True,
                   choices=("gl", "u", "weylA", "weylB", "weylD"))
    p.add_argument("--n", type=int, required=True)
    _add_scale_flags(p)
    p.set_defaults(func=lambda a, _p=p: _cmd_degree_sum(a, _p))

    p = subs.add_parser("involutions", help="involution count")
    p.add_argument("--group", required=True,
                   choices=("gl", "u", "weylA", "weylB", "weylD"))
    p.add_argument("--n", type=int, required=True)
    _add_scale_flags(p)
    p.set_defaults(func=lambda a, _p=p: _cmd_involutions(a, _p))

    p = subs.add_parser("eps-split",
                        help="indicator-refined unitary degree sums")
    p.add_argument("--n", type=int, required=True)
    _add_scale_flags(p)
    p.set_defaults(func=lambda a, _p=p: _cmd_eps_split(a, _p))

    p = subs.add_parser("brute-involutions",
                        help="enumerate a small group directly")
    p.add_argument("--group", required=True, choices=("gl", "u"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=lambda a: _cmd_brute_involutions(a))

    return parser


# expression values often start with '-'; fold them into --flag=value form
# so argparse does not mistake them for option strings
_VALUE_FLAGS = ("--z", "--t", "--lam", "--lambda")


def _merge_value_flags(argv):
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            merged.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_merge_value_flags(argv))
    try:
        return args.func(args)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
