"""Command-line interface: basis listings, class evaluation, degree
tables, Dickson identity reports, tuple certificates, representation
file analysis, and the verification driver.

Every command takes the same path.  It validates its input (input errors
exit 3 before any compute or cache lookup), builds its payload, and hands
it to _emit with its CSV rows and text lines as lazy iterables (and, for
the long listings, its JSON payload as a function), so only the format
asked for is ever built.  _emit alone reads --format and
returns the text and exit code; _print writes them.  The five computing
commands build and emit inside an output() closure passed to _cached,
which, with --cache-dir or MODCHAR_CACHE, prints the sealed entry stored
for (command, params, --format) instead, or runs output() and stores it.

Each command imports the modules it runs after the input checks that
need none of them (the computing ones inside output(), so a cache hit
loads no compute layer), and the result cache only when a cache root is
set, so an input error those checks catch exits before the compute
layers load.  json, too, is imported only by JSON output and by
rep-analyze, which reads a JSON file.

Exit codes: 0 ok, 1 check failure, 2 usage error, 3 input error,
4 internal error (a broken internal invariant, never a check result),
141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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


def _cached(args, command: str, params: dict, output) -> int:
    """Print output(), the command's (stdout, exit code), and return the
    code.  With --cache-dir or MODCHAR_CACHE, the result cache holds one
    entry per command, params (its canonical inputs) and --format: a
    sealed entry found there is printed instead, and anything else is a
    miss, run and stored."""
    root = args.cache_dir or os.environ.get("MODCHAR_CACHE")
    if not root:
        return _print(output())
    from .cache import ResultCache

    cache, key = ResultCache(root), ResultCache.key(command, params, args.format)
    result = cache.get(key)
    if result is None:
        result = output()
        cache.put(key, *result)
    return _print(result)


def _emit(args, payload, header, rows, lines, ok: bool = True) -> tuple[str, int]:
    """The payload as --format asks (JSON, the CSV rows under header, or
    the text lines), with exit code 0, or 1 when a check failed.  rows
    and lines are lazy, and payload is the JSON object or a function
    building it, so the format not asked for is never built."""
    if args.format == "json":
        import json

        obj = payload() if callable(payload) else payload
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = "".join(",".join(map(str, row)) + "\n" for row in itertools.chain((header,), rows))
    else:
        text = "".join(f"{line}\n" for line in lines)
    return text, EXIT_OK if ok else EXIT_CHECK_FAILURE


def _print(result: tuple[str, int]) -> int:
    """Write the text of _emit's result to stdout and return its code.
    The text goes in 8 KiB pieces: one write of a long text can end
    without an error when the reader closes the pipe early, while a
    piece written after the close raises BrokenPipeError (exit 141)."""
    text, code = result
    for start in range(0, len(text), 1 << 13):
        sys.stdout.write(text[start : start + (1 << 13)])
    sys.stdout.flush()  # a closed pipe raises here, inside main's handler
    return code


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
# (p, r, max_degree) = (3, 8, 20) tests 3,108,105 of them in about 0.8 s
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

    params = {"p": args.p, "r": args.r, "max_degree": args.max_degree}

    def output():
        basis = {}
        for d in range(args.max_degree + 1):
            monomials = mono.enumerate_invariant_basis(args.p, args.r, d)
            if monomials:
                basis[d] = [mono.format_monomial(m) for m in monomials]
        payload = {"schema": SCHEMA, **params, "basis": {str(d): ms for d, ms in basis.items()}}
        rows = ((d, m) for d, monomials in basis.items() for m in monomials)
        lines = (f"{d}: " + ", ".join(monomials) for d, monomials in basis.items())
        return _emit(args, payload, ("degree", "monomial"), rows, lines)

    return _cached(args, "basis", params, output)


def cmd_chi(args) -> int:
    _require_field(args.p, args.r)
    _require_rank(args.n)
    from . import mono

    try:
        alpha = mono.parse_monomial(args.alpha, args.r)
    except mono.ParseError as exc:
        raise InputError(f"cannot parse alpha: {exc}") from exc

    params = {"p": args.p, "r": args.r, "n": args.n, "alpha": mono.format_monomial(alpha)}

    def output():
        from . import chi

        # the terms in canonical order, formatted as the walk yields them
        terms = chi.chi_terms(args.p, args.r, alpha, args.n)
        text = functools.cache(mono.format_monomial)  # a few factors over many terms

        def rows(terms):
            return (("⊗".join(map(text, tup)), c) for tup, c in terms)

        def rendered(terms):
            return " + ".join(mono.format_term(t, c) for t, c in rows(terms)) or "0"

        def payload():
            held = list(terms)  # read twice, for rendered and for terms
            obj = functools.cache(mono.Monomial.to_json)
            json_terms = [{"factors": [obj(m) for m in tup], "coeff": c} for tup, c in held]
            return {"schema": SCHEMA, **params, "rendered": rendered(held), "terms": json_terms}

        def lines():
            yield rendered(terms)

        return _emit(args, payload, ("term", "coeff"), rows(terms), lines())

    return _cached(args, "chi", params, output)


# Bound on a nonvanish table: the rows it can list, (p^n - 1) times the
# entries per dimension N (the witnesses, 1 at p = 2 and 2 otherwise, plus
# max_degree when r = 1 and a max degree is given).  (p, r, n) = (7, 2, 6)
# lists 235,296 rows in about 0.45 s as text and 1.6 s as json on a
# 2-core host (Python 3.11).
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
    params = {"p": args.p, "r": args.r, "n": args.n, "max_degree": args.max_degree}

    def output():
        from . import chi, mono

        table = chi.universal_table(args.p, args.r, args.n, args.max_degree)
        header = ("N", "alpha", "degree", "status")
        text = functools.cache(mono.format_monomial)  # a few alphas over many rows

        def fields():
            return ((row.N, text(row.alpha), row.degree, row.status) for row in table)

        def payload():
            return {"schema": SCHEMA, **params, "rows": [dict(zip(header, f)) for f in fields()]}

        lines = (f"N={N}  alpha={alpha}  degree={degree}  {status}" for N, alpha, degree, status in fields())
        return _emit(args, payload, header, fields(), lines)

    return _cached(args, "nonvanish", params, output)


# Bound on a dickson report: p^n <= 49 and dmax <= 3(p^n - 1), the
# default.  The slowest report inside it, (p, n) = (2, 5), took 0.52-0.58 s
# in five runs (2-core host, Python 3.11.7, no bytecode cache), most of it
# the one series quotient that Newton's identity and the inverse route
# share: the two fields are one predicate, and the product form D * A
# runs in verify and the tests.  Outside the bound, (2, 5) at dmax 120
# took 27.8 s in-process.
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
    params = {"p": args.p, "n": args.n, "dmax": dmax}

    def output():
        from . import dickson

        payload = {"schema": SCHEMA, **params, **dickson.report(args.p, args.n, dmax)}
        signs = payload["product_signs"].items()  # by i, as components are by degree
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
            yield from (f"D_{d} = {text}" for d, text in payload["components"].items())

        return _emit(args, payload, ("check", "result"), rows(), lines(), payload["ok"])

    return _cached(args, "dickson", params, output)


def cmd_tuples(args) -> int:
    if args.max < 0:
        raise InputError("--max must be >= 0")
    _require_field(args.p)
    _require_rank(args.n)
    params = {"p": args.p, "n": args.n, "max": args.max}

    def output():
        from . import chi

        tuples = chi.indecomposable_tuples(args.p, args.n, args.max)

        def payload():
            return {"schema": SCHEMA, **params, "tuples": [{"parts": list(t), "degree": d} for t, d in tuples]}

        rows = ((" ".join(map(str, t)), d) for t, d in tuples)
        lines = (f"({', '.join(map(str, t))})  degree {d}" for t, d in tuples)
        return _emit(args, payload, ("parts", "degree"), rows, lines)

    return _cached(args, "tuples", params, output)


def _chi_exponents(text: str) -> list[int]:
    """The exponents of a --chi list: runs of the digits 0-9 joined by
    single commas, each at least 1; anything else is an input error
    naming the first bad part."""
    parts = text.split(",")
    for part in parts:
        if not (part.isascii() and part.isdecimal()):
            raise InputError(f"bad --chi list {text!r}: part {part!r} is not a decimal exponent")
    wanted = [int(part) for part in parts]
    if any(k < 1 for k in wanted):
        raise InputError("--chi exponents must be >= 1")
    return wanted


def cmd_rep_analyze(args) -> int:
    wanted = [] if args.chi is None else _chi_exponents(args.chi)
    import json

    from . import reps

    try:
        with open(args.path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.path} is not valid JSON: {exc}") from exc
    try:
        rep, basepoint = reps.rep_from_dict(obj)
    except ValueError as exc:  # FieldError and RepValidationError too
        raise InputError(f"{args.path}: {exc}") from exc
    if wanted and rep.ctx.r != 1:
        raise InputError(
            "polynomial classes are only available over the prime field "
            "(r = 1); this file has r = " + str(rep.ctx.r)
        )
    stages = reps.socle_filtration(rep)
    red = reps.classify(rep)  # reads J_0 and J_1 from the walk just made
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

    return _print(_emit(args, payload, ("field", "value"), rows(), lines()))


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
    return _print(_emit(args, payload, ("suite", "result", "seconds"), rows, lines, ok))


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
