"""Command-line interface: basis listings, class evaluation, degree
tables, Dickson identity reports, tuple certificates, representation
file analysis, and the verification driver.

Exit codes: 0 ok, 1 check failure, 2 usage error, 3 input error,
4 internal error (a broken internal invariant, never a check result).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import __version__, chi, dickson, mono, reps, verify
from .cache import ResultCache
from .ff import FieldError
from .mono import Monomial, NotInvariant, ParseError

SCHEMA = "modchar/1"

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    """Bad user input: parse failures, invalid parameters, bad files."""


def _add_common(parser):
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    parser.add_argument("--cache-dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modchar",
        description="Exact modular characteristic classes over finite fields.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="invariant basis monomials per degree")
    p_basis.add_argument("--p", type=int, required=True)
    p_basis.add_argument("--r", type=int, default=1)
    p_basis.add_argument("--max-degree", type=int, required=True)
    _add_common(p_basis)

    p_chi = sub.add_parser("chi", help="class of a basic representation")
    p_chi.add_argument("--p", type=int, required=True)
    p_chi.add_argument("--r", type=int, default=1)
    p_chi.add_argument("--n", type=int, required=True)
    p_chi.add_argument("--alpha", required=True)
    _add_common(p_chi)

    p_nonv = sub.add_parser("nonvanish", help="nonzero universal class table")
    p_nonv.add_argument("--p", type=int, required=True)
    p_nonv.add_argument("--r", type=int, default=1)
    p_nonv.add_argument("--n", type=int, required=True)
    p_nonv.add_argument("--max-degree", type=int, default=None)
    _add_common(p_nonv)

    p_dick = sub.add_parser("dickson", help="Dickson identity report")
    p_dick.add_argument("--p", type=int, required=True)
    p_dick.add_argument("--n", type=int, required=True)
    p_dick.add_argument("--dmax", type=int, default=None)
    _add_common(p_dick)

    p_tup = sub.add_parser("tuples", help="carry-free tuple certificates")
    p_tup.add_argument("--p", type=int, required=True)
    p_tup.add_argument("--n", type=int, required=True)
    p_tup.add_argument("--max", type=int, required=True)
    _add_common(p_tup)

    p_rep = sub.add_parser("rep-analyze", help="analyze a representation file")
    p_rep.add_argument("path")
    p_rep.add_argument(
        "--chi",
        default=None,
        help="comma-separated y-power exponents to evaluate (r = 1 only)",
    )
    _add_common(p_rep)

    p_ver = sub.add_parser("verify", help="run the cross-check suites")
    p_ver.add_argument("--profile", choices=("quick", "full"), default="quick")
    p_ver.add_argument(
        "--suite", action="append", default=None, help="restrict to named suites"
    )
    _add_common(p_ver)
    return parser


def _cache_from(args) -> ResultCache:
    root = args.cache_dir or os.environ.get("MODCHAR_CACHE")
    return ResultCache(root)


def _cached(args, command: str, params: dict, compute):
    cache = _cache_from(args)
    if cache.root is None:
        return compute()
    key = ResultCache.key(command, params)
    payload = cache.get(key)
    if payload is None:
        payload = compute()
        cache.put(key, payload)
    return payload


def _print_json(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _print_csv(rows, header):
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(str(x) for x in row) + "\n")
    sys.stdout.write(out.getvalue())


def cmd_basis(args) -> int:
    if args.max_degree < 0:
        raise InputError("--max-degree must be >= 0")

    def compute():
        _require_prime(args.p)
        by_degree = {}
        for d in range(args.max_degree + 1):
            monomials = mono.enumerate_invariant_basis(args.p, args.r, d)
            if monomials:
                by_degree[str(d)] = [mono.format_monomial(m) for m in monomials]
        return {
            "schema": SCHEMA,
            "p": args.p,
            "r": args.r,
            "max_degree": args.max_degree,
            "basis": by_degree,
        }

    payload = _cached(
        args,
        "basis",
        {"p": args.p, "r": args.r, "max_degree": args.max_degree},
        compute,
    )
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            (d, m)
            for d in sorted(payload["basis"], key=int)
            for m in payload["basis"][d]
        ]
        _print_csv(rows, ("degree", "monomial"))
    else:
        for d in sorted(payload["basis"], key=int):
            print(f"{d}: " + ", ".join(payload["basis"][d]))
    return EXIT_OK


def _parse_alpha(args) -> Monomial:
    try:
        return mono.parse_monomial(args.alpha, args.r)
    except ParseError as exc:
        raise InputError(f"cannot parse alpha: {exc}") from exc


def cmd_chi(args) -> int:
    _require_prime(args.p)
    alpha = _parse_alpha(args)

    def compute():
        try:
            tc = chi.chi_basic(args.p, args.r, alpha, args.n)
        except NotInvariant as exc:
            raise InputError(str(exc)) from exc
        return {
            "schema": SCHEMA,
            "p": args.p,
            "r": args.r,
            "n": args.n,
            "alpha": mono.format_monomial(alpha),
            "rendered": tc.render(),
            "terms": [
                {"factors": [m.to_json() for m in tup], "coeff": c}
                for tup, c in tc.canonical_items()
            ],
        }

    payload = _cached(
        args,
        "chi",
        {
            "p": args.p,
            "r": args.r,
            "n": args.n,
            "alpha": mono.format_monomial(alpha),
        },
        compute,
    )
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            ("⊗".join(mono.format_monomial(Monomial.from_json(f)) for f in t["factors"]), t["coeff"])
            for t in payload["terms"]
        ]
        _print_csv(rows, ("term", "coeff"))
    else:
        print(payload["rendered"])
    return EXIT_OK


def cmd_nonvanish(args) -> int:
    def compute():
        _require_prime(args.p)
        rows = chi.universal_table(args.p, args.r, args.n, args.max_degree)
        return {
            "schema": SCHEMA,
            "p": args.p,
            "r": args.r,
            "n": args.n,
            "max_degree": args.max_degree,
            "rows": [
                {
                    "N": row.N,
                    "alpha": mono.format_monomial(row.alpha),
                    "degree": row.degree,
                    "status": row.status,
                }
                for row in rows
            ],
        }

    payload = _cached(
        args,
        "nonvanish",
        {"p": args.p, "r": args.r, "n": args.n, "max_degree": args.max_degree},
        compute,
    )
    rows = [(r["N"], r["alpha"], r["degree"], r["status"]) for r in payload["rows"]]
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv(rows, ("N", "alpha", "degree", "status"))
    else:
        for n_dim, alpha, deg, status in rows:
            print(f"N={n_dim}  alpha={alpha}  degree={deg}  {status}")
    return EXIT_OK


# Bound on a dickson report: p^n <= 49 and dmax <= 3(p^n - 1), the
# default.  The slowest report inside it, (p, n) = (2, 5), takes about
# 5 s (medians 4.6-5.6 s in four sets of five runs on a 2-core host,
# Python 3.11); 2^5 at dmax 120 takes about 50 s and 2^6 at its default
# longer.
DICKSON_MAX_ORDER = 49


def dickson_dmax(p: int, n: int, dmax: int | None) -> int:
    """The dmax a dickson report runs with, or InputError naming the
    bound the input breaks."""
    if n < 1:
        raise InputError("--n must be >= 1")
    _require_prime(p)
    q = 1
    for _ in range(n):  # stops within six steps, as p >= 2
        q *= p
        if q > DICKSON_MAX_ORDER:
            raise InputError(
                f"p^n = {p}^{n} exceeds the dickson bound p^n <= {DICKSON_MAX_ORDER}"
            )
    if dmax is None:
        return 3 * (q - 1)
    if dmax < q - 1:
        raise InputError(f"--dmax must be at least {q - 1}")
    if dmax > 3 * (q - 1):
        raise InputError(
            f"--dmax must be at most {3 * (q - 1)} (the dickson bound dmax <= 3(p^n - 1))"
        )
    return dmax


def cmd_dickson(args) -> int:
    dmax = dickson_dmax(args.p, args.n, args.dmax)

    def compute():
        return {"schema": SCHEMA, **dickson.report(args.p, args.n, dmax)}

    payload = _cached(
        args, "dickson", {"p": args.p, "n": args.n, "dmax": dmax}, compute
    )
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            ("sparsity", payload["sparsity"]),
            ("newton", payload["newton"]),
            ("inverse", payload["inverse"]),
        ] + [
            (f"product_sign_i={i}", s)
            for i, s in sorted(payload["product_signs"].items(), key=lambda kv: int(kv[0]))
        ]
        _print_csv(rows, ("check", "result"))
    else:
        verdict = lambda b: "ok" if b else "FAIL"  # noqa: E731
        signs = ", ".join(
            f"i={i}: {'+1' if s == 1 else s if isinstance(s, str) else '-1'}"
            for i, s in sorted(payload["product_signs"].items(), key=lambda kv: int(kv[0]))
        )
        print(
            f"sparsity: {verdict(payload['sparsity'])}, "
            f"newton: {verdict(payload['newton'])}, "
            f"inverse: {verdict(payload['inverse'])}, products: {signs}"
        )
        for d in sorted(payload["components"], key=int):
            print(f"D_{d} = {payload['components'][d]}")
    if not payload["ok"]:
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_tuples(args) -> int:
    def compute():
        _require_prime(args.p)
        tuples = chi.indecomposable_tuples(args.p, args.n, args.max)
        return {
            "schema": SCHEMA,
            "p": args.p,
            "n": args.n,
            "max": args.max,
            "tuples": [{"parts": list(t), "degree": d} for t, d in tuples],
        }

    payload = _cached(
        args, "tuples", {"p": args.p, "n": args.n, "max": args.max}, compute
    )
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            (" ".join(str(x) for x in t["parts"]), t["degree"])
            for t in payload["tuples"]
        ]
        _print_csv(rows, ("parts", "degree"))
    else:
        for t in payload["tuples"]:
            print(f"({', '.join(str(x) for x in t['parts'])})  degree {t['degree']}")
    return EXIT_OK


def cmd_rep_analyze(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.path} is not valid JSON: {exc}") from exc
    try:
        rep, basepoint = reps.rep_from_dict(obj)
    except (ValueError, FieldError) as exc:
        raise InputError(f"{args.path}: {exc}") from exc
    wanted = []
    if args.chi:
        try:
            wanted = [int(part) for part in args.chi.split(",") if part.strip()]
        except ValueError as exc:
            raise InputError(f"bad --chi list: {exc}") from exc
        if rep.ctx.r != 1:
            raise InputError(
                "polynomial classes are only available over the prime field "
                "(r = 1); this file has r = " + str(rep.ctx.r)
            )
        if any(k < 1 for k in wanted):
            raise InputError("--chi exponents must be >= 1")
    try:
        reps.require_valid(rep)
    except reps.RepValidationError as exc:
        raise InputError(f"{args.path}: {exc}") from exc
    stages = reps.socle_filtration(rep)
    red = reps.reduce_from_stages(rep, stages)
    payload = {
        "schema": SCHEMA,
        "p": rep.ctx.p,
        "r": rep.ctx.r,
        "dim": rep.dim,
        "rank": rep.rank,
        "socle_dims": [s.dim for s in stages],
        "verdict": red.verdict,
    }
    if red.verdict == "reduced":
        payload["quotient_rank"] = red.quotient_rank
        payload["projection"] = [list(row) for row in red.projection]
    if basepoint is not None:
        payload["basepoint_fixed"] = all(
            g.matvec(basepoint) == basepoint for g in rep.generators
        )
    if wanted:
        payload["chi"] = {
            f"y^{k}": reps.chi_from_reduction(rep, red, k).render() for k in wanted
        }
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        rows = [("socle_dims", " ".join(str(d) for d in payload["socle_dims"]))]
        rows.append(("verdict", payload["verdict"]))
        if "quotient_rank" in payload:
            rows.append(("quotient_rank", payload["quotient_rank"]))
        for key, val in payload.get("chi", {}).items():
            rows.append((key, val))
        _print_csv(rows, ("field", "value"))
    else:
        print("socle dims: " + ", ".join(str(d) for d in payload["socle_dims"]))
        if red.verdict == "zero":
            print("verdict: zero (all classes vanish)")
        else:
            print(f"verdict: reduced to rank {red.quotient_rank}")
            for row in payload["projection"]:
                print("  pi " + " ".join(str(x) for x in row))
        for key, val in payload.get("chi", {}).items():
            print(f"chi[{key}] = {val}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = None
    if args.suite:
        unknown = [s for s in args.suite if s not in verify.ALL_SUITES]
        if unknown:
            raise InputError(f"unknown suites: {', '.join(unknown)}")
        names = args.suite
    results = verify.run(args.profile, names)
    payload = {
        "schema": SCHEMA,
        "profile": args.profile,
        "results": [
            {
                "suite": r.name,
                "ok": r.ok,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
    }
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv(
            [(r.name, "pass" if r.ok else "FAIL", f"{r.seconds:.3f}") for r in results],
            ("suite", "result", "seconds"),
        )
    else:
        for r in results:
            mark = "pass" if r.ok else "FAIL"
            extra = f"  {r.detail}" if (r.detail and not r.ok) else ""
            print(f"{mark:4s}  {r.name}  ({r.seconds:.2f}s){extra}")
    if not all(r.ok for r in results):
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def _require_prime(p: int) -> None:
    from .ff import is_prime

    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")


_COMMANDS = {
    "basis": cmd_basis,
    "chi": cmd_chi,
    "nonvanish": cmd_nonvanish,
    "dickson": cmd_dickson,
    "tuples": cmd_tuples,
    "rep-analyze": cmd_rep_analyze,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotInvariant, ParseError, FieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
