"""`cli` workload: the user's path, one command per fresh interpreter.

It is the only workload that pays interpreter start and import,
argument parsing, output formatting, the result cache (one cached
command run twice against one fresh --cache-dir: write, then read) and
the verify suites.  Output formats rotate over text, json and csv with
the seed.  Input errors must exit 3; three malformed rep files that the
program accepts today are kept and counted as failed operations.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re

import oracle
from harness import ROOT, CliQuery
from oracle import require
from wl_reps import conjugate

FORMATS = ("text", "json", "csv")

# malformed rep files that must be rejected with exit 3
MALFORMED = {
    "row-as-string": {"p": 2, "dim": 2, "generators": [["11", "01"]]},
    "boolean-entries": {"p": 2, "dim": 2, "generators": [[[True, True], [False, True]]]},
    "dim-zero": {"p": 2, "dim": 0, "generators": []},
}


# -- output parsers (the program's printed grammar, read back) -----------------


def parse_monomial(text, r):
    text = text.strip()
    ext, pows = [0] * r, [0] * r
    if text == "1":
        return tuple(ext), tuple(pows)
    for tok in text.split():
        m = re.fullmatch(r"([xy])(\d*)(?:\^(\d+))?", tok)
        require(m is not None, f"unreadable monomial {text!r}")
        kind, idx, exp = m.groups()
        i = int(idx) if idx else 0
        if kind == "x":
            ext[i] = 1
        else:
            pows[i] += int(exp) if exp else 1
    return tuple(ext), tuple(pows)


def _split_coeff(term):
    head, _, rest = term.partition(" ")
    if head.isdigit() and rest:
        return int(head), rest
    return 1, term


def parse_tensor(text, r):
    if text.strip() == "0":
        return []
    out = []
    for term in text.strip().split(" + "):
        c, body = _split_coeff(term)
        out.append((tuple(parse_monomial(m, r) for m in body.split("⊗")), c))
    return out


def parse_poly(text, nvars):
    """MultiPoly.render: terms like '2 z1^3 z2', joined by ' + '."""
    if text.strip() == "0":
        return []
    out = []
    for term in text.strip().split(" + "):
        c, body = _split_coeff(term)
        exps = [0] * nvars
        if body.isdigit():
            c, body = int(body), ""
        for tok in body.split():
            m = re.fullmatch(r"z(\d+)(?:\^(\d+))?", tok)
            require(m is not None, f"unreadable polynomial term {term!r}")
            exps[int(m.group(1)) - 1] += int(m.group(2)) if m.group(2) else 1
        out.append((tuple(exps), c))
    return out


def read_csv(stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    return rows[0], rows[1:]


# -- checks per command ----------------------------------------------------------


def check_basis(fmt, p, r, max_degree):
    def check(stdout):
        if fmt == "json":
            listed = {int(d): ms for d, ms in json.loads(stdout)["basis"].items()}
        elif fmt == "csv":
            listed = {}
            for d, m in read_csv(stdout)[1]:
                listed.setdefault(int(d), []).append(m)
        else:
            listed = {}
            for line in stdout.splitlines():
                d, _, ms = line.partition(": ")
                listed[int(d)] = ms.split(", ")
        for d in range(max_degree + 1):
            want = oracle.basis_brute(p, r, d)
            got = [parse_monomial(m, r) for m in listed.get(d, [])]
            require(len(got) == len(want) and set(got) == want, f"basis degree {d} differs from the brute-force count")
        return {}

    return check


def check_chi(fmt, p, r, n, alpha, rng):
    ext, pows = alpha

    def check(stdout):
        if fmt == "json":
            terms = [
                (tuple((tuple(f["A"]), tuple(f["B"])) for f in t["factors"]), t["coeff"])
                for t in json.loads(stdout)["terms"]
            ]
        elif fmt == "csv":
            terms = [(tuple(parse_monomial(m, r) for m in t.split("⊗")), int(c)) for t, c in read_csv(stdout)[1]]
        else:
            terms = parse_tensor(stdout, r)
        oracle.check_class_terms(p, r, n, ext, pows, terms)
        if r == 1 and not any(ext):
            flat = [(tuple(f[1][0] for f in factors), c) for factors, c in terms]
            oracle.sz_power_sum(p, n, pows[0], flat, rng, sign=-1)
        return {}

    return check


def check_nonvanish(fmt, p, n, max_degree):
    def check(stdout):
        if fmt == "json":
            rows = [(row["N"], row["alpha"], row["degree"], row["status"]) for row in json.loads(stdout)["rows"]]
        elif fmt == "csv":
            rows = [(int(a), b, int(c), d) for a, b, c, d in read_csv(stdout)[1]]
        else:
            rows = []
            for line in stdout.splitlines():
                m = re.fullmatch(r"N=(\d+)  alpha=(.*)  degree=(\d+)  (\S+)", line)
                require(m is not None, f"unreadable row {line!r}")
                rows.append((int(m.group(1)), m.group(2), int(m.group(3)), m.group(4)))
        want = oracle.table_entries(p, 1, n, max_degree)
        for N in range(2, p**n + 1):
            got = {(*parse_monomial(a, 1), d, s) for NN, a, d, s in rows if NN == N}
            require(got == want, f"nonvanish N={N}: rows differ")
        require(len(rows) == (p**n - 1) * len(want), "nonvanish: wrong row count")
        return {}

    return check


def check_tuples(fmt, p, n, total):
    def check(stdout):
        if fmt == "json":
            got = [(tuple(t["parts"]), t["degree"]) for t in json.loads(stdout)["tuples"]]
        elif fmt == "csv":
            got = [(tuple(int(x) for x in parts.split()), int(d)) for parts, d in read_csv(stdout)[1]]
        else:
            got = []
            for line in stdout.splitlines():
                m = re.fullmatch(r"\(([\d, ]+)\)  degree (\d+)", line)
                require(m is not None, f"unreadable tuple line {line!r}")
                got.append((tuple(int(x) for x in m.group(1).split(", ")), int(m.group(2))))
        require(got == oracle.tuples_brute(p, n, total), "tuples differ from brute force")
        return {}

    return check


def check_dickson(fmt, p, n, rng):
    def check(stdout):
        comps = None
        if fmt == "json":
            payload = json.loads(stdout)
            flags = [payload["sparsity"], payload["newton"], payload["inverse"], payload["ok"]]
            signs = {int(i): s for i, s in payload["product_signs"].items()}
            comps = payload["components"]
        elif fmt == "csv":
            rows = dict(read_csv(stdout)[1])
            flags = [rows.pop(k) == "True" for k in ("sparsity", "newton", "inverse")]
            signs = {int(k.split("=")[1]): int(v) for k, v in rows.items()}
        else:
            lines = stdout.splitlines()
            head = lines[0]
            flags = [f"{k}: ok" in head for k in ("sparsity", "newton", "inverse")]
            signs = {int(i): int(s) for i, s in re.findall(r"i=(\d+): ([+-]1)", head)}
            comps = dict(re.fullmatch(r"D_(\d+) = (.*)", line).groups() for line in lines[1:])
        require(all(flags), f"dickson {p, n}: an identity reported failure")
        require(sorted(signs) == list(range(n + 1)), "dickson: product signs missing")
        for i, s in signs.items():
            oracle.check_product_sign(p, n, i, s, rng)
        if comps is not None:
            oracle.check_dickson_components(p, n, {int(d): parse_poly(t, n) for d, t in comps.items()}, rng)
        return {}

    return check


def check_rep(fmt, obj, ks, dims, rng):
    def check(stdout):
        answer = {"chi": {}, "projection": None, "quotient_rank": None}
        if fmt == "json":
            payload = json.loads(stdout)
            answer.update(socle_dims=payload["socle_dims"], verdict=payload["verdict"])
            answer["quotient_rank"] = payload.get("quotient_rank")
            answer["projection"] = payload.get("projection")
            chi = payload.get("chi", {})
        elif fmt == "csv":
            rows = dict(read_csv(stdout)[1])
            answer["socle_dims"] = [int(x) for x in rows.pop("socle_dims").split()]
            answer["verdict"] = rows.pop("verdict")
            if "quotient_rank" in rows:
                answer["quotient_rank"] = int(rows.pop("quotient_rank"))
            chi = rows
        else:
            lines = stdout.splitlines()
            answer["socle_dims"] = [int(x) for x in lines[0].removeprefix("socle dims: ").split(", ")]
            chi, proj = {}, []
            for line in lines[1:]:
                if line.startswith("verdict: reduced to rank "):
                    answer["verdict"], answer["quotient_rank"] = "reduced", int(line.rsplit(" ", 1)[1])
                elif line.startswith("verdict: zero"):
                    answer["verdict"] = "zero"
                elif line.startswith("  pi "):
                    proj.append([int(x) for x in line.split()[1:]])
                else:
                    key, _, val = line.removeprefix("chi[").partition("] = ")
                    chi[key] = val
            answer["projection"] = proj if answer["verdict"] == "reduced" else None
        s = len(obj["generators"])
        answer["chi"] = {int(k.removeprefix("y^")): parse_poly(v, s) for k, v in chi.items()}
        require(sorted(answer["chi"]) == sorted(ks), "rep-analyze: classes missing")
        oracle.check_rep_answer(obj, answer, rng, dims)
        return {}

    return check


def check_verify(stdout):
    payload = json.loads(stdout)
    suites = {row["suite"] for row in payload["results"]}
    require(all(row["ok"] for row in payload["results"]), "verify: a suite failed")
    require(len(payload["results"]) >= 10 and len(suites) == len(payload["results"]), "verify: suites missing")
    return {"suites": sorted(suites)}


def project_version():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^version = "([^"]+)"', text, re.M).group(1)


# -- the query list ---------------------------------------------------------------


def setup(seed: int, workdir):
    import modchar  # noqa: F401  (set-up time covers the import)
    from modchar import reps

    rng = random.Random(f"{seed}/cli")
    offset = seed % len(FORMATS)
    queries = []

    def fmt_for(i):
        return FORMATS[(i + offset) % len(FORMATS)]

    def add(name, command, argv, check=None, **kw):
        fmt = kw.pop("fmt", None)
        if fmt is not None:
            argv = argv + ["--format", fmt]
        queries.append(CliQuery(name, command, argv, check=check, **kw))

    version = project_version()

    def check_version(stdout):
        require(stdout.strip() == version, f"--version printed {stdout.strip()!r}, pyproject says {version}")
        return {}

    add("version", "startup", ["--version"], check_version)

    i = 0
    for p, r, dmax in ((3, 2, 30),):
        f = fmt_for(i)
        i += 1
        add(f"basis/{p}/{r}", "basis", ["basis", "--p", str(p), "--r", str(r), "--max-degree", str(dmax)], check_basis(f, p, r, dmax), fmt=f)

    # chi: one deep prime-field class and seeded basis monomials over GF(4), GF(9)
    chi_cases = [(2, 1, 5, ((0,), (62,)))]
    for p, r, n, degrees in ((3, 2, 2, range(30, 45)),):
        pool = sorted(m for d in degrees for m in oracle.basis_brute(p, r, d))
        chi_cases.append((p, r, n, rng.choice(pool)))
    for p, r, n, alpha in chi_cases:
        f = fmt_for(i)
        i += 1
        text = " ".join(
            [f"x{k}" for k, a in enumerate(alpha[0]) if a]
            + [f"y{k}^{b}" for k, b in enumerate(alpha[1]) if b]
        )
        add(
            f"chi/{p}/{r}/{n}",
            "chi",
            ["chi", "--p", str(p), "--r", str(r), "--n", str(n), "--alpha", text],
            check_chi(f, p, r, n, alpha, random.Random(f"{seed}/chi/{p}/{r}")),
            fmt=f,
        )

    for p, n, dmax in ((3, 2, 60),):
        f = fmt_for(i)
        i += 1
        add(f"nonvanish/{p}/{n}", "nonvanish", ["nonvanish", "--p", str(p), "--n", str(n), "--max-degree", str(dmax)], check_nonvanish(f, p, n, dmax), fmt=f)

    f = fmt_for(i)
    i += 1
    add("tuples/3/3", "tuples", ["tuples", "--p", "3", "--n", "3", "--max", "120"], check_tuples(f, 3, 3, 120), fmt=f)

    f = fmt_for(i)
    i += 1
    add("dickson/2/3", "dickson", ["dickson", "--p", "2", "--n", "3"], check_dickson(f, 2, 3, random.Random(f"{seed}/d23")), fmt=f)

    # rep files: written here, so set-up time covers building them
    rep_cases = [
        ("regular-2-3", reps.rep_to_dict(reps.regular_rep(2, 3)), (7, 13), oracle.loewy_dims(2, 3)),
        ("big-2-2-2", reps.rep_to_dict(reps.big_rep(2, 2, 2)), (), oracle.loewy_dims(2, 2)),
    ]
    rep_cases.append(("conj-regular-3-2", conjugate(reps.rep_to_dict(reps.regular_rep(3, 2)), rng), (8,), oracle.loewy_dims(3, 2)))
    for name, obj, ks, dims in rep_cases:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        f = fmt_for(i)
        i += 1
        argv = ["rep-analyze", str(path)] + (["--chi", ",".join(map(str, ks))] if ks else [])
        add(f"rep-analyze/{name}", "rep-analyze", argv, check_rep(f, obj, ks, dims, random.Random(f"{seed}/rep/{name}")), fmt=f)

    add("verify/quick", "verify", ["verify", "--profile", "quick", "--format", "json"], check_verify, stable=False)

    # cached pairs: the write runs against an empty --cache-dir, the read
    # against the same directory right after; stdout must match byte for byte
    f = fmt_for(i)
    i += 1
    dick = ["dickson", "--p", "3", "--n", "3", "--format", f]
    add("cached-dickson:write", "dickson", dick, check_dickson(f, 3, 3, random.Random(f"{seed}/d33")), cache_role="write")
    add("cached-dickson:read", "dickson", dick, cache_role="read")
    f = fmt_for(i)
    i += 1
    tup = ["tuples", "--p", "2", "--n", "3", "--max", "60", "--format", f]
    add("cached-tuples:write", "tuples", tup, check_tuples(f, 2, 3, 60), cache_role="write")
    add("cached-tuples:read", "tuples", tup, cache_role="read")

    # input errors: exit 3 with an error message
    bad_dir = workdir / "bad"
    bad_dir.mkdir()
    noncommuting = {"p": 2, "dim": 3, "generators": [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]]}
    (bad_dir / "noncommuting.json").write_text(json.dumps(noncommuting), encoding="utf-8")
    (bad_dir / "gf4.json").write_text(json.dumps(dict((n, o) for n, o, _, _ in rep_cases)["big-2-2-2"]), encoding="utf-8")
    errors = [
        ("p-not-prime", "chi", ["chi", "--p", "4", "--n", "2", "--alpha", "y^3"]),
        ("bad-monomial", "chi", ["chi", "--p", "3", "--n", "2", "--alpha", "z^2"]),
        ("dmax-too-small", "dickson", ["dickson", "--p", "2", "--n", "2", "--dmax", "1"]),
        ("noncommuting", "rep-analyze", ["rep-analyze", str(bad_dir / "noncommuting.json")]),
        ("chi-over-gf4", "rep-analyze", ["rep-analyze", str(bad_dir / "gf4.json"), "--chi", "3"]),
    ]
    for name, command, argv in errors:
        add(f"error/{name}", command, argv, expect_exit=3)
    for name, obj in MALFORMED.items():
        path = bad_dir / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        add(f"malformed/{name}", "rep-analyze", ["rep-analyze", str(path)], expect_exit=3, known_fault=True)
    return queries


def cross_check(facts: dict) -> list:
    return []
