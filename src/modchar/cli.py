"""Command-line interface: basis listings, class evaluation, degree
tables, Dickson identity reports, tuple certificates, representation
file analysis, and the verification driver.

Every command takes the same path.  It validates its input (input errors
exit 3 before any compute or cache lookup), gets its payload, and hands
it to _emit with its CSV rows and text lines as lazy iterables (generator
expressions over the payload), so only the format printed is ever built.
The five computing commands get their payload from _cached, which builds
{"schema", **params, **compute()} once and, with --cache-dir or
MODCHAR_CACHE, reads it from and writes it to the result cache (a hit
must match the command's params and result shape); the rows and lines
read only the payload, so cached and fresh runs print the same bytes.
_emit alone reads --format, prints, and sets the exit code.

Each command imports the modules it runs inside its cmd_* function,
after the input checks that need none of them, and the result cache is
imported only when a cache root is set, so a command compiles and loads
only its own part of the package, and an input error those checks catch
exits before the compute layers load.  json, too, is imported only by
JSON output and by rep-analyze, which reads a JSON file.

Exit codes: 0 ok, 1 check failure, 2 usage error, 3 input error,
4 internal error (a broken internal invariant, never a check result),
141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__, is_prime

SCHEMA = "modchar/1"

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE


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


def _fits(value, shape) -> bool:
    """True when value has the JSON shape: a type (int is not bool), a
    tuple of alternatives, [item shape], {int: value shape} for an object
    keyed by decimal strings, or an object with exactly the given keys."""
    if isinstance(shape, tuple):
        return any(_fits(value, s) for s in shape)
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(v, shape[0]) for v in value)
    if not isinstance(shape, dict):
        return type(value) is shape
    if not isinstance(value, dict):
        return False
    if int in shape:
        return all(k.isdecimal() and _fits(v, shape[int]) for k, v in value.items())
    return value.keys() == shape.keys() and all(_fits(value[k], s) for k, s in shape.items())


def _cached(args, command: str, params: dict, compute, shape: dict) -> dict:
    """The payload {"schema", **params, **compute()}, read from the result
    cache when --cache-dir or MODCHAR_CACHE names one, else computed (and
    then stored there).  params are the command's canonical inputs and
    key the cache; shape gives the JSON shape (see _fits) of each result
    field compute() returns.  An entry counts as a hit only when it is
    an object whose schema and every param equal the request and whose
    other fields are exactly those of shape, each of its shape; anything
    else is a miss, recomputed and overwritten."""
    root = args.cache_dir or os.environ.get("MODCHAR_CACHE")
    if root:
        from .cache import ResultCache

        cache, key = ResultCache(root), ResultCache.key(command, params)
        payload = cache.get(key)
        expected = {"schema": SCHEMA, **params}
        if _fits(payload, {**{k: type(v) for k, v in expected.items()}, **shape}) and all(
            payload[k] == v for k, v in expected.items()
        ):
            return payload
    payload = {"schema": SCHEMA, **params, **compute()}
    if root:
        cache.put(key, payload)
    return payload


def _emit(args, payload: dict, header, rows, lines, ok: bool = True) -> int:
    """Print the payload as --format asks (JSON, the CSV rows under header,
    or the text lines); exit 0, or 1 when a check failed.  rows and lines
    are lazy, so the format not asked for is never built."""
    if args.format == "json":
        import json

        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.format == "csv":
        sys.stdout.write("".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))
    else:
        for line in lines:
            print(line)
    sys.stdout.flush()  # a closed pipe raises here, inside main's handler
    return EXIT_OK if ok else EXIT_CHECK_FAILURE


def _require_field(p: int, r: int = 1) -> None:
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    if r < 1:
        raise InputError("--r must be >= 1")


def _require_max_degree(max_degree: int | None) -> None:
    if max_degree is not None and max_degree < 0:
        raise InputError("--max-degree must be >= 0")


def _require_rank(n: int) -> None:
    if n < 1:
        raise InputError("--n must be >= 1")


# Bound on a basis listing: the residue walk tests at most this many
# exponent vectors (mono.basis_walk_size) over all the degrees asked for.
# (p, r, max_degree) = (3, 8, 20) tests 3,108,105 of them in about 2 s
# on a 2-core host (Python 3.11).
BASIS_MAX_WALK = 4_000_000


def cmd_basis(args) -> int:
    from . import mono

    _require_max_degree(args.max_degree)
    _require_field(args.p, args.r)
    walk = mono.basis_walk_size(args.p, args.r, args.max_degree)
    if walk > BASIS_MAX_WALK:
        raise InputError(
            f"the basis walk would test {walk:,} exponent vectors; "
            f"the basis bound is {BASIS_MAX_WALK:,}"
        )

    def compute():
        by_degree = {}
        for d in range(args.max_degree + 1):
            monomials = mono.enumerate_invariant_basis(args.p, args.r, d)
            if monomials:
                by_degree[str(d)] = [mono.format_monomial(m) for m in monomials]
        return {"basis": by_degree}

    params = {"p": args.p, "r": args.r, "max_degree": args.max_degree}
    payload = _cached(args, "basis", params, compute, {"basis": {int: [str]}})
    basis = [(d, payload["basis"][d]) for d in sorted(payload["basis"], key=int)]
    rows = ((d, m) for d, monomials in basis for m in monomials)
    lines = (f"{d}: " + ", ".join(monomials) for d, monomials in basis)
    return _emit(args, payload, ("degree", "monomial"), rows, lines)


def _chi_terms(terms):
    """Each term of a chi payload as (its factor texts joined by ⊗, its
    coefficient), lazily, formatting each distinct factor once.  The
    rendered class and the CSV rows both read these."""
    from .mono import Monomial, format_monomial

    text = functools.cache(lambda ext, pows: format_monomial(Monomial(ext, pows)))
    return (
        ("⊗".join(text(tuple(f["A"]), tuple(f["B"])) for f in t["factors"]), t["coeff"])
        for t in terms
    )


def _chi_result(tc) -> dict:
    """The result fields of a chi payload: the terms of the tensor class
    in canonical order, sharing one JSON object per distinct factor, and
    the class rendered from them ("0" when it is zero)."""
    from .mono import Monomial, format_term

    to_json = functools.cache(Monomial.to_json)
    terms = [{"factors": list(map(to_json, tup)), "coeff": c} for tup, c in tc.canonical_items()]
    rendered = " + ".join(format_term(text, c) for text, c in _chi_terms(terms))
    return {"rendered": rendered or "0", "terms": terms}


def cmd_chi(args) -> int:
    _require_field(args.p, args.r)
    _require_rank(args.n)
    from . import chi, mono

    try:
        alpha = mono.parse_monomial(args.alpha, args.r)
    except mono.ParseError as exc:
        raise InputError(f"cannot parse alpha: {exc}") from exc

    params = {"p": args.p, "r": args.r, "n": args.n, "alpha": mono.format_monomial(alpha)}
    factor = {"A": [int], "B": [int]}
    shape = {"rendered": str, "terms": [{"factors": [factor], "coeff": int}]}

    def compute():
        return _chi_result(chi.chi_basic(args.p, args.r, alpha, args.n))

    payload = _cached(args, "chi", params, compute, shape)
    rows = _chi_terms(payload["terms"])
    return _emit(args, payload, ("term", "coeff"), rows, (payload["rendered"],))


# Bound on a nonvanish table: the rows it can list, (p^n - 1) times the
# entries per dimension N (the witnesses, 1 at p = 2 and 2 otherwise, plus
# max_degree when r = 1 and a max degree is given).  (p, r, n) = (7, 2, 6)
# lists 235,296 rows in about 3.3 s as text or json on a 2-core host
# (Python 3.11).
NONVANISH_MAX_ROWS = 250_000


def _require_nonvanish_rows(p: int, r: int, n: int, max_degree: int | None) -> None:
    _require_rank(n)
    per_n, table = (1 if p == 2 else 2), f"p^n = {p}^{n}"
    if r == 1 and max_degree is not None:
        per_n, table = per_n + max_degree, f"{table} and max degree {max_degree}"
    q = 1
    for _ in range(n):  # stops once the rows pass the bound, as p >= 2
        q *= p
        if (q - 1) * per_n > NONVANISH_MAX_ROWS:
            raise InputError(
                f"the table for {table} would list more than {NONVANISH_MAX_ROWS:,} rows; "
                f"the nonvanish bound is {NONVANISH_MAX_ROWS:,} rows"
            )


def cmd_nonvanish(args) -> int:
    _require_max_degree(args.max_degree)
    _require_field(args.p, args.r)
    _require_nonvanish_rows(args.p, args.r, args.n, args.max_degree)
    from . import chi, mono

    def compute():
        table = chi.universal_table(args.p, args.r, args.n, args.max_degree)
        return {
            "rows": [
                {
                    "N": row.N,
                    "alpha": mono.format_monomial(row.alpha),
                    "degree": row.degree,
                    "status": row.status,
                }
                for row in table
            ]
        }

    params = {"p": args.p, "r": args.r, "n": args.n, "max_degree": args.max_degree}
    shape = {"rows": [{"N": int, "alpha": str, "degree": int, "status": str}]}
    payload = _cached(args, "nonvanish", params, compute, shape)
    rows = ((r["N"], r["alpha"], r["degree"], r["status"]) for r in payload["rows"])
    lines = ("N={N}  alpha={alpha}  degree={degree}  {status}".format(**r) for r in payload["rows"])
    return _emit(args, payload, ("N", "alpha", "degree", "status"), rows, lines)


# Bound on a dickson report: p^n <= 49 and dmax <= 3(p^n - 1), the
# default.  The slowest report inside it, (p, n) = (2, 5), took 2.7-3.7 s
# in five runs (2-vCPU host, Python 3.11.7, which at busier hours ran it
# in 4.0-5.7 s).  Outside it, (2, 5) at dmax 120 took 27.8 s in-process.
DICKSON_MAX_ORDER = 49


def dickson_dmax(p: int, n: int, dmax: int | None) -> int:
    """The dmax a dickson report runs with, or InputError naming the
    bound the input breaks."""
    _require_rank(n)
    _require_field(p)
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
    from . import dickson

    params = {"p": args.p, "n": args.n, "dmax": dmax}
    shape = {check: bool for check in ("sparsity", "newton", "inverse", "ok")}
    shape.update(product_signs={int: (int, str)}, components={int: str})
    payload = _cached(args, "dickson", params, lambda: dickson.report(args.p, args.n, dmax), shape)
    signs = sorted(payload["product_signs"].items(), key=lambda kv: int(kv[0]))
    checks = [(check, payload[check]) for check in ("sparsity", "newton", "inverse")]

    def rows():
        yield from checks
        yield from ((f"product_sign_i={i}", s) for i, s in signs)

    def lines():
        rendered = ", ".join(
            f"i={i}: {'+1' if s == 1 else s if isinstance(s, str) else '-1'}" for i, s in signs
        )
        verdicts = ", ".join(f"{check}: {'ok' if passed else 'FAIL'}" for check, passed in checks)
        yield f"{verdicts}, products: {rendered}"
        for d in sorted(payload["components"], key=int):
            yield f"D_{d} = {payload['components'][d]}"

    return _emit(args, payload, ("check", "result"), rows(), lines(), payload["ok"])


def cmd_tuples(args) -> int:
    if args.max < 0:
        raise InputError("--max must be >= 0")
    _require_field(args.p)
    _require_rank(args.n)
    from . import chi

    def compute():
        tuples = chi.indecomposable_tuples(args.p, args.n, args.max)
        return {"tuples": [{"parts": list(t), "degree": d} for t, d in tuples]}

    params = {"p": args.p, "n": args.n, "max": args.max}
    shape = {"tuples": [{"parts": [int], "degree": int}]}
    payload = _cached(args, "tuples", params, compute, shape)
    rows = ((" ".join(map(str, t["parts"])), t["degree"]) for t in payload["tuples"])
    lines = (
        f"({', '.join(map(str, t['parts']))})  degree {t['degree']}" for t in payload["tuples"]
    )
    return _emit(args, payload, ("parts", "degree"), rows, lines)


def cmd_rep_analyze(args) -> int:
    import json

    from . import reps

    try:
        with open(args.path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.path} is not valid JSON: {exc}") from exc
    wanted = []
    if args.chi:
        try:
            wanted = [int(part) for part in args.chi.split(",") if part.strip()]
        except ValueError as exc:
            raise InputError(f"bad --chi list: {exc}") from exc
        if any(k < 1 for k in wanted):
            raise InputError("--chi exponents must be >= 1")
    try:
        rep, basepoint = reps.rep_from_dict(obj)
    except ValueError as exc:  # FieldError and RepValidationError too
        raise InputError(f"{args.path}: {exc}") from exc
    if args.chi and rep.ctx.r != 1:
        raise InputError(
            "polynomial classes are only available over the prime field "
            "(r = 1); this file has r = " + str(rep.ctx.r)
        )
    stages = reps.socle_filtration(rep)
    red = reps.classify(rep)  # reads J_0 and J_1 from the rep's memo
    dims = [s.dim for s in stages]
    payload = {
        "schema": SCHEMA,
        "p": rep.ctx.p,
        "r": rep.ctx.r,
        "dim": rep.dim,
        "rank": rep.rank,
        "socle_dims": dims,
        "verdict": red.verdict,
    }
    reduced = red.verdict == "reduced"
    if reduced:
        payload["quotient_rank"] = red.quotient_rank
        payload["projection"] = [list(row) for row in red.projection]
    if basepoint is not None:
        payload["basepoint_fixed"] = all(g.matvec(basepoint) == basepoint for g in rep.generators)
    chis = {f"y^{k}": reps.chi_of_rep(rep, k).render() for k in wanted}
    if chis:
        payload["chi"] = chis

    def rows():
        yield "socle_dims", " ".join(map(str, dims))
        yield "verdict", red.verdict
        if reduced:
            yield "quotient_rank", red.quotient_rank
        yield from chis.items()

    def lines():
        yield "socle dims: " + ", ".join(map(str, dims))
        if reduced:
            yield f"verdict: reduced to rank {red.quotient_rank}"
            yield from ("  pi " + " ".join(map(str, row)) for row in red.projection)
        else:
            yield "verdict: zero (all classes vanish)"
        yield from (f"chi[{key}] = {val}" for key, val in chis.items())

    return _emit(args, payload, ("field", "value"), rows(), lines())


def cmd_verify(args) -> int:
    from . import verify

    unknown = [s for s in args.suite or () if s not in verify.ALL_SUITES]
    if unknown:
        raise InputError(f"unknown suites: {', '.join(unknown)}")
    results = verify.run(args.profile, args.suite)
    payload = {
        "schema": SCHEMA,
        "profile": args.profile,
        "results": [
            {"suite": r.name, "ok": r.ok, "detail": r.detail, "seconds": round(r.seconds, 3)}
            for r in results
        ],
    }
    marks = ["pass" if r.ok else "FAIL" for r in results]
    rows = ((r.name, mark, f"{r.seconds:.3f}") for r, mark in zip(results, marks))
    lines = (
        f"{mark:4s}  {r.name}  ({r.seconds:.2f}s)"
        + (f"  {r.detail}" if r.detail and not r.ok else "")
        for r, mark in zip(results, marks)
    )
    ok = all(r.ok for r in results)
    return _emit(args, payload, ("suite", "result", "seconds"), rows, lines, ok)


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
    except BrokenPipeError:
        # the reader closed stdout (as `| head -1` does): point it at
        # devnull so the interpreter's final flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (InputError, ValueError) as exc:  # ParseError, FieldError, NotInvariant too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
