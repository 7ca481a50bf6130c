"""Command-line behavior: frozen outputs, formats, exit codes, cache."""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from modchar import cache, cli, ff, mono, reps
from modchar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_text_frozen(capsys):
    code, out, _ = run(capsys, "basis", "--p", "3", "--r", "1", "--max-degree", "4")
    assert code == 0
    assert out.splitlines() == ["0: 1", "3: x y", "4: y^2"]


def test_basis_q2(capsys):
    code, out, _ = run(capsys, "basis", "--p", "2", "--r", "1", "--max-degree", "2")
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: y", "2: y^2"]


def test_basis_q4_includes_y0y1(capsys):
    code, out, _ = run(capsys, "basis", "--p", "2", "--r", "2", "--max-degree", "3")
    assert code == 0
    assert "2: y0 y1" in out


def test_chi_frozen(capsys):
    code, out, _ = run(capsys, "chi", "--p", "2", "--n", "2", "--alpha", "y^3")
    assert code == 0
    assert out.strip() == "y⊗y^2 + y^2⊗y"


def test_chi_identity_case(capsys):
    code, out, _ = run(capsys, "chi", "--p", "3", "--n", "1", "--alpha", "x y")
    assert code == 0
    assert out.strip() == "x y"


def test_chi_large_prime_builds_only_invariant_splits(capsys):
    # y^(p-1) at p = 1000003 has one digit, p - 1: its two invariant splits
    # both have a unit side, and nothing else is built
    start = time.perf_counter()
    code, out, _ = run(capsys, "chi", "--p", "1000003", "--n", "2", "--alpha", "y^1000002")
    assert (code, out) == (0, "0\n")
    assert time.perf_counter() - start < 5


def test_chi_deep_binary_class_counts_its_terms(capsys):
    # y^127 at n = 7: each factor takes one binary digit, 7! terms
    start = time.perf_counter()
    code, out, _ = run(capsys, "chi", "--p", "2", "--n", "7", "--alpha", "y^127", "--format", "json")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert len(terms) == 5040
    powers = {tuple(f["B"][0] for f in t["factors"]) for t in terms}
    assert len(powers) == 5040 and all(sorted(ps) == [2**i for i in range(7)] for ps in powers)
    assert all(t["coeff"] == 1 for t in terms)
    assert time.perf_counter() - start < 5


def test_chi_result_renders_tensor_terms(capsys, monkeypatch):
    # cmd_chi renders the terms chi_terms yields, in the order it yields
    # them: factor texts joined by ⊗, after the coefficient when it is not
    # 1; no term at all renders as 0
    from modchar import chi

    y1, y2 = mono.Monomial((0,), (1,)), mono.Monomial((0,), (2,))
    terms = [((y1, y2), 2), ((y2, y1), 1)]

    def printed(terms, fmt="text"):
        monkeypatch.setattr(chi, "chi_terms", lambda p, r, alpha, n: iter(terms))
        code, out, _ = run(capsys, "chi", "--p", "3", "--n", "2", "--alpha", "y^3", "--format", fmt)
        assert code == 0
        return out

    assert printed(terms[1:]) == "y^2⊗y\n"
    assert printed(terms) == "2 y⊗y^2 + y^2⊗y\n"
    assert printed(terms[::-1]) == "y^2⊗y + 2 y⊗y^2\n"
    assert printed(terms, "csv") == "term,coeff\ny⊗y^2,2\ny^2⊗y,1\n"
    obj = json.loads(printed(terms, "json"))
    assert obj["rendered"] == "2 y⊗y^2 + y^2⊗y"
    assert obj["terms"] == [
        {"factors": [{"A": [0], "B": [1]}, {"A": [0], "B": [2]}], "coeff": 2},
        {"factors": [{"A": [0], "B": [2]}, {"A": [0], "B": [1]}], "coeff": 1},
    ]
    assert printed([]) == "0\n"
    assert printed([], "csv") == "term,coeff\n"
    obj = json.loads(printed([], "json"))
    assert (obj["rendered"], obj["terms"]) == ("0", [])


def _spy_emit(monkeypatch):
    """Record the rows and lines each command hands to _emit."""
    emitted = []
    emit = cli._emit

    def spy(args, payload, header, rows, lines, ok=True):
        emitted.append((rows, lines))
        return emit(args, payload, header, rows, lines, ok)

    monkeypatch.setattr(cli, "_emit", spy)
    return emitted


def _unbuilt(items) -> bool:
    """True for a generator that has produced nothing yet."""
    return inspect.isgenerator(items) and inspect.getgeneratorstate(items) == inspect.GEN_CREATED


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_chi_formats_each_distinct_factor_once(capsys, monkeypatch, fmt):
    # y^127 at n = 7: 5040 terms over 7 distinct factors.  alpha is
    # formatted once and each factor once, whatever the format; the CSV
    # rows are built only for csv
    calls = []
    format_monomial = mono.format_monomial

    def counted(m):
        calls.append(m)
        return format_monomial(m)

    monkeypatch.setattr(mono, "format_monomial", counted)
    emitted = _spy_emit(monkeypatch)
    code, out, _ = run(capsys, "chi", "--p", "2", "--n", "7", "--alpha", "y^127", "--format", fmt)
    assert code == 0 and out
    assert len(calls) == 7 + 1 and len(set(calls)) == 7 + 1
    ((rows, _),) = emitted
    assert _unbuilt(rows) == (fmt != "csv")


# one quick input per command, for the laziness check below
EMIT_CASES = {
    "basis": ["basis", "--p", "2", "--r", "2", "--max-degree", "6"],
    "chi": ["chi", "--p", "5", "--n", "3", "--alpha", "y^124"],
    "nonvanish": ["nonvanish", "--p", "3", "--n", "2"],
    "dickson": ["dickson", "--p", "2", "--n", "2"],
    "tuples": ["tuples", "--p", "2", "--n", "3", "--max", "14"],
    "rep-analyze": ["rep-analyze", None, "--chi", "1,3"],
    "verify": ["verify", "--suite", "lowest-degrees", "--suite", "witnesses"],
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", sorted(EMIT_CASES))
def test_each_command_builds_only_the_format_asked(capsys, tmp_path, monkeypatch, command, fmt):
    # the rows and lines of a format not printed are never started
    argv = [a if a else _write_rep(tmp_path, reps.regular_rep(2, 2)) for a in EMIT_CASES[command]]
    emitted = _spy_emit(monkeypatch)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    ((rows, lines),) = emitted
    assert _unbuilt(rows) == (fmt != "csv")
    assert _unbuilt(lines) == (fmt != "text")


def test_chi_non_invariant_is_input_error(capsys):
    code, _, err = run(capsys, "chi", "--p", "3", "--n", "2", "--alpha", "y")
    assert code == cli.EXIT_INPUT
    assert "invariant" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--p", "3", "--n", "2", "--alpha", "y^3"], "y^3 is not invariant for q = 3"),
        (
            ["--p", "2", "--r", "30", "--n", "2", "--alpha", "y0 y29^2"],
            "y0 y29^2 is not invariant for q = 2^30",
        ),
        # 2^20000 in decimal passes int's string conversion limit
        (
            ["--p", "2", "--r", "20000", "--n", "1", "--alpha", "y19999"],
            "y19999 is not invariant for q = 2^20000",
        ),
    ],
)
def test_chi_non_invariant_names_the_monomial_as_written(capsys, argv, message):
    code, out, err = run(capsys, "chi", *argv)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"error: {message}\n"


def test_chi_at_a_large_extension_degree_skips_the_zero_slots(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "chi", "--p", "2", "--r", "100000", "--n", "1", "--alpha", "1")
    assert (code, out) == (0, "0\n")
    assert time.perf_counter() - start < 5


def test_chi_parse_error(capsys):
    code, _, err = run(capsys, "chi", "--p", "3", "--n", "1", "--alpha", "q^2")
    assert code == cli.EXIT_INPUT
    assert "parse" in err


def test_chi_non_ascii_digit_is_a_parse_error(capsys):
    # y^3 with an Arabic-Indic digit three, which int() would accept
    code, out, err = run(capsys, "chi", "--p", "2", "--n", "2", "--alpha", "y^\u0663")
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "error: cannot parse alpha: bad token 'y^\u0663' at position 0\n"


@pytest.mark.parametrize("alpha", ["", "   "])
def test_chi_empty_or_blank_alpha_is_a_parse_error(capsys, alpha):
    code, out, err = run(capsys, "chi", "--p", "3", "--n", "2", "--alpha", alpha)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "error: cannot parse alpha: empty monomial (write 1 for the unit)\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--p", "2"])
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_nonvanish_formats_each_distinct_alpha_once(capsys, monkeypatch, fmt):
    # p = 3, n = 4: 160 rows over the two witness alphas
    calls = []
    format_monomial = mono.format_monomial

    def counted(m):
        calls.append(m)
        return format_monomial(m)

    monkeypatch.setattr(mono, "format_monomial", counted)
    code, out, _ = run(capsys, "nonvanish", "--p", "3", "--n", "4", "--format", fmt)
    assert code == 0 and out.count("y") >= 160
    assert len(calls) == len(set(calls)) == 2


def test_nonvanish_csv_column_order(capsys):
    code, out, _ = run(
        capsys,
        "nonvanish", "--p", "3", "--r", "1", "--n", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,alpha,degree,status"
    assert "2,x y^5,11,nonzero" in lines
    assert "2,y^8,16,non-nilpotent" in lines
    assert len(lines) == 1 + 8 * 2  # N in [2, 9], two witnesses each


def test_dickson_report(capsys):
    code, out, _ = run(capsys, "dickson", "--p", "2", "--n", "2", "--dmax", "9")
    assert code == 0
    line = out.splitlines()[0]
    assert "newton: ok" in line and "inverse: ok" in line
    assert "i=0: +1" in line and "i=2: +1" in line


# sha256 of `modchar dickson` stdout: the report's bytes are pinned, so a
# change to the polynomial kernel or the report code cannot alter them
DICKSON_DIGESTS = {
    (2, 3, "text"): "40fcf58c55ee4d6a3c2aa243c7041f0de4cd8976455bb35598dda3a9bbb7fe74",
    (2, 3, "json"): "0529628514ef134d47718c76872a821585fb0e491477678073917a09a691ad5a",
    (2, 3, "csv"): "1bc619729d9063dbd37d8596a25b576deba12a9a8403ffd69dde9c23fa85b265",
    (3, 2, "text"): "cb0a8c4802b325c0f108758f85dcbed73c4aa0233940ab56181d0ee50591bbc1",
    (3, 2, "json"): "bece371529649091ab7353963b9bbd0b98fbc72726a32204ee9b51d5ce49a583",
    (3, 2, "csv"): "3b6c13cc04956cc5c997bb5a303611a915630e66426019c30dc7e6de87466736",
    (2, 4, "text"): "5f6bc49d0a0ed8e900b43bffe6710207fe842234a00d95c325ba0adade599b42",
    (2, 4, "json"): "3de19edf857d743fdca3ee9c162e7db0718bb1e334a32dff49e4976293df5c78",
    (2, 4, "csv"): "f130a8b78d61863ef320a86ade2c10887e15fe590fe961318f76cad704573187",
    # the slowest report inside the dickson bound
    (2, 5, "text"): "f610318f429ee25f7a06a6a03ff26580732aae35ecd1e7ebd796b8a6f5b1159f",
}


@pytest.mark.parametrize("p, n, fmt", sorted(DICKSON_DIGESTS))
def test_dickson_output_is_frozen(capsys, p, n, fmt):
    code, out, _ = run(capsys, "dickson", "--p", str(p), "--n", str(n), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DICKSON_DIGESTS[p, n, fmt]


# the commands' arguments for the pinned digests below; rep-analyze cases
# name a rep that the test writes to a file.  big (2,2,2) is over GF(4),
# where --chi is refused, so it runs without it
OUTPUT_CASES = {
    "basis q=3": ["basis", "--p", "3", "--max-degree", "12"],
    "basis q=4": ["basis", "--p", "2", "--r", "2", "--max-degree", "6"],
    "chi y^3": ["chi", "--p", "2", "--n", "2", "--alpha", "y^3"],
    "chi x y^5": ["chi", "--p", "3", "--n", "2", "--alpha", "x y^5"],
    "chi q=4": ["chi", "--p", "2", "--r", "2", "--n", "2", "--alpha", "y0^3 y1^3"],
    # 120 terms over 15 distinct factors, coefficients 1 to 4
    "chi y^124": ["chi", "--p", "5", "--n", "3", "--alpha", "y^124"],
    # 16 terms of exterior factors over GF(9), coefficients 1 and 2
    "chi q=9": ["chi", "--p", "3", "--r", "2", "--n", "2", "--alpha", "x0 x1 y0^5 y1^5"],
    "nonvanish": ["nonvanish", "--p", "3", "--n", "2"],
    "nonvanish md": ["nonvanish", "--p", "3", "--n", "2", "--max-degree", "20"],
    "tuples": ["tuples", "--p", "2", "--n", "3", "--max", "14"],
}
REP_CASES = {
    "rep regular": (lambda: reps.regular_rep(2, 3), ["--chi", "1,3,7"]),
    "rep big": (lambda: reps.big_rep(2, 2, 2), []),
    "rep sum": (
        lambda: reps.direct_sum(reps.basic_rep(2, 1, 1).rep, reps.basic_rep(2, 1, 1).rep),
        ["--chi", "1,3,7"],
    ),
}

# sha256 of stdout per command and format, recorded before the commands
# shared one output path, so that path cannot alter a byte
OUTPUT_DIGESTS = {
    ("basis q=3", "text"): "1647d5406ef3de148fa7dcd03a4678b4a38d2ff8e8d4785b88d8ce83aa069591",
    ("basis q=3", "json"): "d42a5102c6c03fef474a59c7dc19da6ee3170d6f5d9342ca75f32866b2d73968",
    ("basis q=3", "csv"): "8930ba058c8f989f2d92f1d83d59b50020e87e1ce6eecf87611478ad9934ab43",
    ("basis q=4", "text"): "ea3d7a56ba00975c149a99aaa95d40cc850b0b63bedf2610c82ebaf20a264f11",
    ("basis q=4", "json"): "429c3721352a35ba75fcedf36c2b61fc61d91f51c68912e6b69412c3fc3c9314",
    ("basis q=4", "csv"): "9b5dbb19a6382d991090f5dffb42fe1908232b7132733810592e83218ad0fa07",
    ("chi y^3", "text"): "5a36168c6b287b86064ec977c8c12911b2dbdf1314cdd428fcec0b501de161af",
    ("chi y^3", "json"): "824951c58d2b75702bbe9448ee2cc642ab964e35ae4a87f55d8d8dc0dc3f0ca1",
    ("chi y^3", "csv"): "cacac1d04ae66cb78351d0a5190ad4c53d21857e912707aa66ef3f500348e683",
    ("chi x y^5", "text"): "57f756c8460257ca31188483424bf085ac1cec8c3507cbcda107994a21e335a1",
    ("chi x y^5", "json"): "1a117a78405963283582de5a1f862ed217a4c00c8383a122a3977e9c473cfa55",
    ("chi x y^5", "csv"): "14520badeeec2b5b419d36bf9da32093ece7c6cc94560e689885db00a193c323",
    ("chi q=4", "text"): "88195a03b9de4f0249ddae050330b8a52f7cfb3ad0bc558c67bc634ec7e217c6",
    ("chi q=4", "json"): "fbe61f28085176d4e17aeb3c0aefdef4615d24b841a2baa0535c60df4b6d6a3b",
    ("chi q=4", "csv"): "7b1b54ec2abf7afce060a91218966ef6de5fb4d37d7f3f64e703515bc6737df9",
    ("chi y^124", "text"): "b46bb7a9ee57c98f3426e059dfa42d0292c2d0f3e84b38de8d83da7acd8add33",
    ("chi y^124", "json"): "8067bb49d121c85676f906c609a86cc12885dff860d6a1651cd5b6c4a50a2b16",
    ("chi y^124", "csv"): "e8a1cbd6d17fc0f960a1aff29126fb79869e38923ae6aca9d9bface567dbbdc2",
    ("chi q=9", "text"): "35d062943dd4bf423007c48444939b98bf81251354d3ac224153eefebbe8a31c",
    ("chi q=9", "json"): "c60ac1f72ee8446876100fbacab8cadc74d2e0965076a072eeceba50e0862a75",
    ("chi q=9", "csv"): "63fd449c2408270ffac42ade13d5c9cf557404d1bbdc8a3ed397ecdd2cc62490",
    ("nonvanish", "text"): "3167623010b09ba61c89d65ab976703356ae333f5b1aaee00a94536e3d00a546",
    ("nonvanish", "json"): "573e70fa73f9a6e898df7af9d0d1c3346b962ca804da723d3a86e9362baa4c0f",
    ("nonvanish", "csv"): "f69a759917ec6a2d17245a93145edf38f07a5239de27ca4252279c4e479edbee",
    ("nonvanish md", "text"): "bf6c39a85d48d7896f654a3ebd01a169f3830d86c6696d2e55f4b9f7a4b5c068",
    ("nonvanish md", "json"): "a2c3afc5a9c0509119be902bf0022df00419b248d029e0388aa9b1f443062f78",
    ("nonvanish md", "csv"): "89e03d0feb80f10a1a33a77a52cac612ff700a58b8c7f38d7fe21a734b044526",
    ("tuples", "text"): "495b3d5e8c163bde5e5f1794d30888264364483c2583c003567615a5a2d8abe6",
    ("tuples", "json"): "f545af837371003e0a9f2affa91f1ccf9dbee0328d6297a0e647b419caaf4676",
    ("tuples", "csv"): "f9c93adfda49513ac453cb7ace41002eac09e4cab4498e117e75b8a38ce91b46",
    ("rep regular", "text"): "196bcff3e57bc311e102d5fb115465c1a33d0f3c3feb9fc651acb9be30f87f6a",
    ("rep regular", "json"): "539ce36d9a87cc5545bf4e83fcba4a8043031b6d22a93396ae411e08f266932b",
    ("rep regular", "csv"): "3d88d8b975b61ad0030bad8ce5031424c8b618853fbac0e7fa0bb1b99249a395",
    ("rep big", "text"): "7e28b3255cdd6ee10e2302f412617266578dd1dc34630f17975b19bd4fe936ad",
    ("rep big", "json"): "99d562d15d075174e6227783006ccc77074c2b51c4540ab365bf389c011c8ac8",
    ("rep big", "csv"): "48eb097f034a87b54857980d5a0093b3e4fb4aa77258801b426a9d0320d2d942",
    ("rep sum", "text"): "b8cab379dd0dad03d2c3478976d0cc03ca80ff512b89db127ec246100994f2f9",
    ("rep sum", "json"): "ee208e3f0a27b62b90e89c2b5ef2884237d85dff54ba965e1cf5e7bf9a3a745e",
    ("rep sum", "csv"): "6cded73281e7dbfd72f1422a75c6cb5ce0a4f3376d7d53d58e1d9ccb03dae78a",
}


@pytest.mark.parametrize("case, fmt", sorted(OUTPUT_DIGESTS))
def test_command_output_is_frozen(capsys, tmp_path, case, fmt):
    if case in REP_CASES:
        build, extra = REP_CASES[case]
        argv = ["rep-analyze", _write_rep(tmp_path, build()), *extra]
    else:
        argv = OUTPUT_CASES[case]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[case, fmt]


def test_dickson_bad_dmax(capsys):
    code, _, err = run(capsys, "dickson", "--p", "2", "--n", "2", "--dmax", "1")
    assert code == cli.EXIT_INPUT
    assert "dmax" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_dickson_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "dickson", "--p", "2", "--n", n)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "--n must be >= 1" in err
    assert "dmax" not in err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["--p", "2", "--n", "1", "--dmax", "100000000"], "dmax <= 3(p^n - 1)"),
        (["--p", "7", "--n", "3"], "p^n <= 49"),
        (["--p", "2", "--n", "6"], "p^n <= 49"),
        (["--p", "3", "--n", "1000000000000"], "p^n <= 49"),
    ],
)
def test_dickson_rejects_inputs_over_the_bound(capsys, argv, bound):
    code, out, err = run(capsys, "dickson", *argv)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert bound in err


_BIG_COMPOSITE = "318665857834031151167461"  # 399165290221 * 798330580441
_PRIMALITY_BOUND = f"p = {_BIG_COMPOSITE} is outside the bound p < 2^64 of the primality test"


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["basis", "--p", "2", "--r", "0", "--max-degree", "3"], "--r must be >= 1"),
        (["basis", "--p", "2", "--r", "-1", "--max-degree", "3"], "--r must be >= 1"),
        (["chi", "--p", "3", "--r", "0", "--n", "1", "--alpha", "1"], "--r must be >= 1"),
        (["nonvanish", "--p", "3", "--r", "0", "--n", "1"], "--r must be >= 1"),
        (["nonvanish", "--p", "3", "--n", "1", "--max-degree", "-5"], "--max-degree must be >= 0"),
        (["basis", "--p", "4", "--max-degree", "3"], "p = 4 is not prime"),
        (["nonvanish", "--p", "4", "--n", "1"], "p = 4 is not prime"),
        (["tuples", "--p", "4", "--n", "2", "--max", "7"], "p = 4 is not prime"),
        (["tuples", "--p", "2", "--n", "3", "--max", "-5"], "--max must be >= 0"),
        (
            ["basis", "--p", "3", "--r", "12", "--max-degree", "30"],
            "the basis walk would test 11,058,116,888 exponent vectors; "
            "the basis bound is 4,000,000",
        ),
        (
            ["nonvanish", "--p", "2", "--r", "1", "--n", "30"],
            "the table for p^n = 2^30 would list more than 250,000 rows; "
            "the nonvanish bound is 250,000 rows",
        ),
        (
            ["nonvanish", "--p", "3", "--r", "1", "--n", "2", "--max-degree", "100000000"],
            "the table for p^n = 3^2 and max degree 100000000 would list more than "
            "250,000 rows; the nonvanish bound is 250,000 rows",
        ),
        (
            ["nonvanish", "--p", "2", "--n", "10" * 30],
            f"the table for p^n = 2^{'10' * 30} would list more than 250,000 rows; "
            "the nonvanish bound is 250,000 rows",
        ),
        (
            ["nonvanish", "--p", "2", "--n", "18"],
            "the table for p^n = 2^18 would list more than 250,000 rows; "
            "the nonvanish bound is 250,000 rows",
        ),
        (["nonvanish", "--p", "3", "--n", "0"], "--n must be >= 1"),
        # --chi is checked before the file is read, so a missing file is never named
        (["rep-analyze", "no-such-rep.json", "--chi", "1_0, +3"],
         "bad --chi list '1_0, +3': part '1_0' is not a decimal exponent"),
        (["rep-analyze", "no-such-rep.json", "--chi", "1, +3"],
         "bad --chi list '1, +3': part ' +3' is not a decimal exponent"),
        (["rep-analyze", "no-such-rep.json", "--chi", "3,,5"],
         "bad --chi list '3,,5': part '' is not a decimal exponent"),
        (["rep-analyze", "no-such-rep.json", "--chi", ","],
         "bad --chi list ',': part '' is not a decimal exponent"),
        (["rep-analyze", "no-such-rep.json", "--chi", ""],
         "bad --chi list '': part '' is not a decimal exponent"),
        (["rep-analyze", "no-such-rep.json", "--chi", "\u0663"],
         "bad --chi list '\u0663': part '\u0663' is not a decimal exponent"),
        (["rep-analyze", "no-such-rep.json", "--chi", "3,0"], "--chi exponents must be >= 1"),
        # a composite that passes all twelve Miller-Rabin bases
        *(
            ([command, "--p", _BIG_COMPOSITE, *rest], _PRIMALITY_BOUND)
            for command, *rest in [
                ["basis", "--max-degree", "1"],
                ["chi", "--n", "1", "--alpha", f"y^{int(_BIG_COMPOSITE) - 1}"],
                ["nonvanish", "--n", "1"],
                ["dickson", "--n", "1"],
                ["tuples", "--n", "1", "--max", "3"],
            ]
        ),
    ],
    ids=["basis-r0", "basis-r-1", "chi-r0", "nonvanish-r0", "nonvanish-max-degree-5",
         "basis-p4", "nonvanish-p4", "tuples-p4", "tuples-max-5", "basis-walk", "nonvanish-rows",
         "nonvanish-rows-max-degree", "nonvanish-rows-huge-n", "nonvanish-rows-p2",
         "nonvanish-n0", "chi-list-underscore", "chi-list-space-sign", "chi-list-empty-part",
         "chi-list-comma", "chi-list-empty", "chi-list-non-ascii-digit", "chi-list-zero",
         "basis-p-over-2^64", "chi-p-over-2^64", "nonvanish-p-over-2^64", "dickson-p-over-2^64",
         "tuples-p-over-2^64"],
)
def test_input_bounds_fail_before_compute_or_cache(capsys, tmp_path, monkeypatch, argv, bound):
    def forbidden(*args):
        raise AssertionError("computed or looked up the cache")

    monkeypatch.setattr(cli, "_cached", forbidden)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_INPUT and out == ""
    assert err == f"error: {bound}\n"
    assert not list(tmp_path.iterdir())


_LOADED_AT_EXIT = """\
import sys
from modchar.cli import main
code = main(sys.argv[1:])
print(sorted(name for name in ("modchar.chi", "modchar.dickson", "modchar.ff") if name in sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["chi", "--p", "4", "--n", "2", "--alpha", "y^3"], "p = 4 is not prime"),
        (["dickson", "--p", "2", "--n", "2", "--dmax", "1"], "--dmax must be at least 3"),
        (["tuples", "--p", "4", "--n", "2", "--max", "7"], "p = 4 is not prime"),
        (
            ["nonvanish", "--p", "2", "--n", "30"],
            "the table for p^n = 2^30 would list more than 250,000 rows; "
            "the nonvanish bound is 250,000 rows",
        ),
        (["tuples", "--p", "2", "--n", "3", "--max", "-5"], "--max must be >= 0"),
        (["chi", "--p", "2", "--n", "0", "--alpha", "y^3"], "--n must be >= 1"),
        (["tuples", "--p", "2", "--n", "0", "--max", "7"], "--n must be >= 1"),
        (
            ["rep-analyze", "no-such-rep.json", "--chi", "3,,5"],
            "bad --chi list '3,,5': part '' is not a decimal exponent",
        ),
    ],
    ids=["chi", "dickson", "tuples", "nonvanish", "tuples-max", "chi-n0", "tuples-n0", "rep-chi"],
)
def test_input_errors_exit_before_importing_the_compute_layers(argv, bound):
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AT_EXIT, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr == f"error: {bound}\n"
    assert proc.stdout == "[]\n"


# dataclasses pulls in inspect, ast, dis and tokenize at start-up; no
# command may load either.  json loads only for JSON output and rep files.
_START_UP_MODULES = """\
import sys
before = set(sys.modules)
from modchar.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
new = set(sys.modules) - before
sys.stderr.write(f"loaded: {sorted(name for name in ('dataclasses', 'inspect', 'json') if name in new)}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (["basis", "--p", "3", "--max-degree", "6"], 0, []),
        (["chi", "--p", "3", "--n", "2", "--alpha", "y^4", "--format", "json"], 0, ["json"]),
        (["nonvanish", "--p", "3", "--n", "2", "--format", "csv"], 0, []),
        (["tuples", "--p", "2", "--n", "3", "--max", "20"], 0, []),
        (["dickson", "--p", "2", "--n", "2"], 0, []),
        (["rep-analyze", "{regular}", "--chi", "3,7"], 0, ["json"]),
        (["rep-analyze", "{noncommuting}"], 3, ["json"]),
        (["verify", "--suite", "filtration"], 0, []),
    ],
    ids=["basis", "chi", "nonvanish", "tuples", "dickson", "rep-analyze-chi", "rep-error", "verify"],
)
def test_no_command_loads_dataclasses_or_inspect(tmp_path, argv, code, loaded):
    files = {
        "regular": _write_rep(tmp_path, reps.regular_rep(2, 3)),
        "noncommuting": str(tmp_path / "noncommuting.json"),
    }
    generators = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]]
    Path(files["noncommuting"]).write_text(json.dumps({"p": 2, "dim": 3, "generators": generators}))
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP_MODULES, *(arg.format(**files) for arg in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    # json may already be loaded at start-up, so a command that uses it may not load it anew
    assert proc.stderr.splitlines()[-1] in {f"loaded: {loaded}", "loaded: []"}


def test_nonvanish_row_bound_edges():
    assert cli.NONVANISH_MAX_ROWS == 250_000
    # (7^6 - 1) x 2 = 235,296 rows, the largest measured table
    cli._require_nonvanish_rows(7, 2, 6, None)
    # the pinned tables and (3, 2, 60): (9 - 1) x 62 = 496 rows
    for max_degree in (None, 20, 60):
        cli._require_nonvanish_rows(3, 1, 2, max_degree)
    # the max degree counts only at r = 1
    cli._require_nonvanish_rows(3, 2, 2, 10**9)
    # one witness per N at p = 2: 2^17 - 1 = 131,071 rows, 2^18 - 1 = 262,143
    cli._require_nonvanish_rows(2, 1, 17, None)
    cli._require_nonvanish_rows(3, 1, 2, 31_248)  # 8 x 31,250 rows
    cli._require_nonvanish_rows(2, 1, 1, 249_999)  # 1 x 250,000 rows
    for args in [(2, 1, 18, None), (3, 1, 2, 31_249), (2, 1, 1, 250_000)]:
        with pytest.raises(cli.InputError, match="nonvanish bound is 250,000 rows"):
            cli._require_nonvanish_rows(*args)


@pytest.mark.parametrize(
    "p,r,n,max_degree",
    [(2, 1, 3, None), (2, 1, 3, 40), (2, 2, 2, None), (3, 1, 2, None), (3, 1, 2, 30),
     (3, 1, 2, 1), (5, 1, 1, 60), (3, 2, 2, 30), (2, 1, 2, 0)],
)
def test_nonvanish_row_count_covers_the_table(monkeypatch, p, r, n, max_degree):
    from modchar import chi

    rows = len(chi.universal_table(p, r, n, max_degree))
    # the count never falls below the rows listed
    monkeypatch.setattr(cli, "NONVANISH_MAX_ROWS", rows - 1)
    with pytest.raises(cli.InputError):
        cli._require_nonvanish_rows(p, r, n, max_degree)
    if p == 2 and max_degree is None:
        # and is exact for the witness-only table at p = 2
        monkeypatch.setattr(cli, "NONVANISH_MAX_ROWS", rows)
        cli._require_nonvanish_rows(p, r, n, max_degree)


def test_nonvanish_p2_under_the_row_bound_runs(capsys, tmp_path, monkeypatch):
    # 2^17 - 1 = 131,071 rows, one witness each; the table itself is stubbed
    from modchar import chi

    calls = []
    monkeypatch.setattr(chi, "universal_table", lambda *args: calls.append(args) or [])
    code, _, _ = run(capsys, "nonvanish", "--p", "2", "--n", "17", "--cache-dir", str(tmp_path))
    assert code == 0 and calls == [(2, 1, 17, None)]


def test_basis_under_the_walk_bound_answers(capsys):
    # 3,108,105 tested exponent vectors, of which only the unit is invariant
    code, out, _ = run(capsys, "basis", "--p", "3", "--r", "8", "--max-degree", "20")
    assert (code, out) == (0, "0: 1\n")


def test_basis_at_a_rank_past_the_recursion_limit_answers(capsys):
    # the residue walk keeps an explicit stack, not one call per slot
    start = time.perf_counter()
    code, out, _ = run(capsys, "basis", "--p", "2", "--r", "990", "--max-degree", "0")
    assert (code, out) == (0, "0: 1\n")
    assert time.perf_counter() - start < 5


def test_chi_rejects_exterior_generators_at_p2(capsys):
    for alpha in ("x", "x y^3"):
        code, out, err = run(capsys, "chi", "--p", "2", "--n", "2", "--alpha", alpha)
        assert code == cli.EXIT_INPUT and out == ""
        assert err == "error: p = 2 admits no exterior generators\n"


def test_dickson_bound_admits_2_5_at_default_dmax():
    assert cli.dickson_dmax(2, 5, None) == 93
    assert cli.dickson_dmax(7, 2, None) == 144
    assert cli.dickson_dmax(2, 2, 9) == 9
    with pytest.raises(cli.InputError, match="at most 93"):
        cli.dickson_dmax(2, 5, 94)


def test_tuples_frozen(capsys):
    code, out, _ = run(capsys, "tuples", "--p", "2", "--n", "2", "--max", "7")
    assert code == 0
    assert out.splitlines() == [
        "(1, 2)  degree 3",
        "(1, 4)  degree 5",
        "(2, 4)  degree 6",
        "(1, 6)  degree 7",
        "(2, 5)  degree 7",
        "(3, 4)  degree 7",
    ]


def test_chi_extension_field_and_csv(capsys):
    code, out, _ = run(
        capsys, "chi", "--p", "2", "--r", "2", "--n", "2", "--alpha", "y0 y1"
    )
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(
        capsys, "chi", "--p", "2", "--n", "2", "--alpha", "y^3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "term,coeff",
        "y⊗y^2,1",
        "y^2⊗y,1",
    ]


def test_basis_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "basis", "--p", "3", "--r", "1", "--max-degree", "4",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["degree,monomial", "0,1", "3,x y", "4,y^2"]
    code, out, _ = run(
        capsys, "basis", "--p", "3", "--r", "1", "--max-degree", "4",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["basis"] == {"0": ["1"], "3": ["x y"], "4": ["y^2"]}


def test_rep_analyze_json(capsys, tmp_path):
    path = _write_rep(tmp_path, reps.regular_rep(2, 2))
    code, out, _ = run(capsys, "rep-analyze", path, "--chi", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["socle_dims"] == [1, 3, 4]
    assert payload["verdict"] == "reduced"
    assert payload["quotient_rank"] == 2
    assert payload["chi"]["y^3"] == "z1^2 z2 + z1 z2^2"


def test_json_outputs_are_deterministic(capsys):
    args = ["nonvanish", "--p", "2", "--r", "1", "--n", "2", "--format", "json"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    payload = json.loads(out1)
    assert payload["schema"] == "modchar/1"
    code, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_cache_round_trip_byte_identical(capsys, tmp_path):
    args = [
        "dickson", "--p", "2", "--n", "2", "--format", "json",
        "--cache-dir", str(tmp_path),
    ]
    code, fresh, _ = run(capsys, *args)
    assert code == 0
    assert list(tmp_path.glob("*.out"))
    code, cached, _ = run(capsys, *args)
    assert code == 0
    assert cached == fresh
    # and identical to a run without any cache
    code, bare, _ = run(capsys, "dickson", "--p", "2", "--n", "2", "--format", "json")
    assert bare == fresh


# one small input per computing command, for the cache round trip
CACHE_CASES = {
    "basis": ["basis", "--p", "2", "--r", "2", "--max-degree", "6"],
    "chi": ["chi", "--p", "3", "--n", "2", "--alpha", "x y^5"],
    "nonvanish": ["nonvanish", "--p", "3", "--n", "2", "--max-degree", "20"],
    "dickson": ["dickson", "--p", "3", "--n", "2"],
    "tuples": ["tuples", "--p", "2", "--n", "3", "--max", "14"],
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", sorted(CACHE_CASES))
def test_cached_fresh_and_bare_runs_are_byte_identical(capsys, tmp_path, monkeypatch, command, fmt):
    writes = []
    put = cache.ResultCache.put

    def counted(self, key, text, code):
        writes.append(key)
        put(self, key, text, code)

    monkeypatch.setattr(cache.ResultCache, "put", counted)
    argv = [*CACHE_CASES[command], "--format", fmt]
    bare = run(capsys, *argv)
    fresh = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert len(writes) == 1 and len(list(tmp_path.glob("*.out"))) == 1
    cached = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert len(writes) == 1  # a hit: read back, not recomputed
    assert bare[0] == 0 and bare[1]
    assert cached == fresh == bare


@pytest.mark.parametrize(
    "entry",
    [
        b'{"schema": "modchar/1"}',
        b"[]",
        b'{"schema": "modchar/1", "p": 2, "n": 2, "max": 9}',
        b"\xff\xfe",
        b'{"schema": "modchar/1", "p": 2, "n": 2, "max": 7}',
        b'{"schema": "modchar/1", "p": 2, "n": 2, "max": 7, "tuples": [{"parts": 5}]}',
        b'{"schema": "modchar/1", "p": 2, "n": 2, "max": 7, "tuples": [{"parts": [true], "degree": 1}]}',
        b'{"schema": "modchar/1", "p": 2, "n": 2, "max": 7, "tuples": [], "extra": 1}',
    ],
)
def test_bad_cache_entry_is_a_miss(capsys, tmp_path, entry):
    # hand-written entries under the request's key: JSON of any shape, or
    # bytes that are not UTF-8; none carries a seal
    argv = ["tuples", "--p", "2", "--n", "2", "--max", "7", "--format", "json"]
    fresh = run(capsys, *argv)
    run(capsys, *argv, "--cache-dir", str(tmp_path))
    (path,) = tmp_path.glob("*.out")
    good = path.read_bytes()
    path.write_bytes(entry)
    assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == fresh
    assert fresh[0] == 0
    assert path.read_bytes() == good


def _edit_last_digit(data: bytes) -> bytes:
    i = max(data.rfind(b"%d" % d) for d in range(10))
    return data[:i] + b"%d" % ((data[i] - ord("0") + 2) % 10) + data[i + 1 :]


def test_cache_entry_with_an_edited_digit_is_a_miss(capsys, tmp_path):
    # the last digit of a good entry changed, as a hand edit of a printed
    # degree would: the edited answer is never printed
    argv = ["tuples", "--p", "2", "--n", "2", "--max", "7", "--cache-dir", str(tmp_path)]
    fresh = run(capsys, *argv)
    assert fresh[0] == 0 and "degree 6" in fresh[1]
    (path,) = tmp_path.iterdir()
    good = path.read_bytes()
    path.write_bytes(_edit_last_digit(good))
    assert run(capsys, *argv) == fresh
    assert path.read_bytes() == good


TAMPERS = {
    "seal-dropped": lambda data: data.split(b"\n", 1)[1],
    "digit-edited": _edit_last_digit,
    "code-changed": lambda data: re.sub(rb"\n\d+\n", b"\n7\n", data, count=1),
    "body-truncated": lambda data: data[: len(data) - 3],
}


@pytest.mark.parametrize("command", sorted(CACHE_CASES))
def test_cache_entry_missing_or_ill_shaped_field_is_a_miss(capsys, tmp_path, command):
    # a good entry in each format with its seal line dropped, a digit of
    # its body changed, its exit code changed or its body cut short is
    # recomputed, and the good entry is written back
    for fmt in ("text", "json", "csv"):
        argv = [*CACHE_CASES[command], "--format", fmt, "--cache-dir", str(tmp_path / fmt)]
        fresh = run(capsys, *argv)
        assert fresh[0] == 0
        (path,) = (tmp_path / fmt).glob("*.out")
        good = path.read_bytes()
        for tamper in TAMPERS.values():
            path.write_bytes(tamper(good))
            assert path.read_bytes() != good
            assert run(capsys, *argv) == fresh
            assert path.read_bytes() == good


def test_cache_entry_under_another_key_is_a_miss(capsys, tmp_path):
    # a good entry of one request copied over another request's entry
    root = ["--cache-dir", str(tmp_path)]
    small = run(capsys, "tuples", "--p", "2", "--n", "2", "--max", "7", *root)
    (small_path,) = tmp_path.glob("*.out")
    argv = ["tuples", "--p", "2", "--n", "2", "--max", "9", *root]
    fresh = run(capsys, *argv)
    assert fresh != small and fresh[0] == 0
    (path,) = set(tmp_path.glob("*.out")) - {small_path}
    good = path.read_bytes()
    path.write_bytes(small_path.read_bytes())
    assert run(capsys, *argv) == fresh
    assert path.read_bytes() == good


@pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-file"])
def test_unwritable_cache_root_is_skipped(capsys, tmp_path, beneath):
    # a --cache-dir that is a regular file, or a path beneath one, can be
    # neither created nor written: the answer prints as a bare run's does
    argv = ["tuples", "--p", "2", "--n", "2", "--max", "7"]
    bare = run(capsys, *argv)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    root = blocker / "cache" if beneath else blocker
    for _ in range(2):
        assert run(capsys, *argv, "--cache-dir", str(root)) == bare == (0, bare[1], "")
    assert blocker.read_text() == "not a directory\n"
    assert list(tmp_path.iterdir()) == [blocker]


_CACHE_HIT_LOADS = """\
import sys
from modchar.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
layers = ("modchar.chi", "modchar.coalg", "modchar.dickson")
sys.stderr.write(f"loaded: {[name for name in layers if name in sys.modules]}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("command", ["chi", "dickson", "nonvanish", "tuples"])
def test_cache_hit_loads_no_compute_layer(tmp_path, command):
    # a miss runs the command's compute layers; a hit prints the stored
    # entry in a fresh interpreter without loading any of them (basis
    # runs only mono, which its walk bound needs before the lookup)
    src = str(Path(cli.__file__).resolve().parent.parent)
    argv = [*CACHE_CASES[command], "--cache-dir", str(tmp_path)]
    runs = [
        subprocess.run(
            [sys.executable, "-c", _CACHE_HIT_LOADS, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        for _ in range(2)
    ]
    miss, hit = runs
    assert miss.returncode == hit.returncode == 0
    assert hit.stdout == miss.stdout
    assert miss.stderr != "loaded: []\n"
    assert hit.stderr == "loaded: []\n"


def test_cache_key_tracks_package_source(capsys, tmp_path, monkeypatch):
    calls = []
    enumerate_basis = mono.enumerate_invariant_basis

    def counted(*args):
        calls.append(args)
        return enumerate_basis(*args)

    monkeypatch.setattr(mono, "enumerate_invariant_basis", counted)
    args = ["basis", "--p", "3", "--max-degree", "2", "--cache-dir", str(tmp_path)]
    code, fresh, _ = run(capsys, *args)
    assert code == 0 and len(calls) == 3
    code, cached, _ = run(capsys, *args)
    assert cached == fresh and len(calls) == 3
    # edited sources give another key, so the same command recomputes
    monkeypatch.setattr(cache, "source_digest", lambda: "0" * 64)
    code, recomputed, _ = run(capsys, *args)
    assert recomputed == fresh and len(calls) == 6
    assert len(list(tmp_path.glob("*.out"))) == 2


def _write_rep(tmp_path, rep, basepoint=None, name="rep.json"):
    path = tmp_path / name
    path.write_text(json.dumps(reps.rep_to_dict(rep, basepoint)))
    return str(path)


def test_rep_analyze_regular(capsys, tmp_path):
    path = _write_rep(tmp_path, reps.regular_rep(2, 2))
    code, out, _ = run(capsys, "rep-analyze", path, "--chi", "3")
    assert code == 0
    assert "socle dims: 1, 3, 4" in out
    assert "reduced to rank 2" in out
    assert "chi[y^3] = z1^2 z2 + z1 z2^2" in out


def test_rep_analyze_chi_at_a_high_power(capsys, tmp_path):
    # the pull-back builds (z1)^3000 by iteration, not by 3000 nested calls
    path = _write_rep(tmp_path, reps.basic_rep(2, 1, 1).rep, name="basic21.json")
    code, out, err = run(capsys, "rep-analyze", path, "--chi", "3000")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "chi[y^3000] = z1^3000"


def test_rep_analyze_direct_sum_zero(capsys, tmp_path):
    b = reps.basic_rep(2, 1, 1).rep
    path = _write_rep(tmp_path, reps.direct_sum(b, b))
    code, out, _ = run(capsys, "rep-analyze", path)
    assert code == 0
    assert "verdict: zero" in out


def test_rep_analyze_validation_error(capsys, tmp_path):
    bad = {
        "p": 3,
        "r": 1,
        "dim": 2,
        "generators": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "rep-analyze", str(path))
    assert code == cli.EXIT_INPUT
    assert "generator 1" in err


def test_rep_analyze_malformed_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 2, "dim": 2, "generators": [["11", "01"]]}))
    code, out, err = run(capsys, "rep-analyze", str(path))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and "generator 0" in err


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"p": 2, "dim": 2, "generators": [[[1, 1], [0, 1]]], "basepoint": [0, 0]}, "basepoint is zero"),
        ([1, 2], "representation file must be a JSON object"),
    ],
    ids=["zero-basepoint", "top-level-array"],
)
def test_rep_analyze_rejected_file_exits_3(capsys, tmp_path, obj, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "rep-analyze", str(path), "--format", "json")
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == f"error: {path}: {message}\n"


def test_rep_analyze_classifies_once_without_annihilator_route(capsys, tmp_path, monkeypatch):
    def forbidden(rep):
        raise AssertionError("the annihilator route is a cross-check only")

    monkeypatch.setattr(reps, "socle_filtration_by_annihilators", forbidden)
    chi7 = "z1^4 z2^2 z3 + z1^4 z2 z3^2 + z1^2 z2^4 z3 + z1^2 z2 z3^4 + z1 z2^4 z3^2 + z1 z2^2 z3^4"
    identity3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    regular = reps.regular_rep(2, 3)
    wedge = reps.wedge_sum(reps.basic_rep(2, 1, 1), reps.basic_rep(2, 1, 2)).rep
    for rep in (regular, wedge):
        red = reps.classify(rep)
        assert (red.verdict, red.quotient_rank, red.projection) == ("reduced", 3, identity3)
        assert reps.chi_of_rep(rep, 1).is_zero() and reps.chi_of_rep(rep, 3).is_zero()
        assert reps.chi_of_rep(rep, 7).render() == chi7

    calls = []
    pairing = reps._pairing

    def counted(rep, j0, j1):
        calls.append(rep)
        return pairing(rep, j0, j1)

    monkeypatch.setattr(reps, "_pairing", counted)
    path = _write_rep(tmp_path, regular)
    code, out, _ = run(capsys, "rep-analyze", path, "--chi", "1,3,7", "--format", "json")
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out)
    assert payload["socle_dims"] == [1, 4, 7, 8]
    assert payload["projection"] == [list(row) for row in identity3]
    assert payload["chi"] == {"y^1": "0", "y^3": "0", "y^7": chi7}


def test_rep_analyze_walks_the_socle_filtration_once(capsys, tmp_path, monkeypatch):
    # one kernel per socle stage plus the trivial-subgroup kernel; the
    # reduction reads J_0 and J_1 from the printed filtration
    calls = []
    kernel = ff.kernel

    def counted(mat):
        calls.append(mat)
        return kernel(mat)

    monkeypatch.setattr(ff, "kernel", counted)
    for rep, dims, expected in [
        (reps.regular_rep(2, 4), [1, 5, 11, 15, 16], 6),
        (reps.big_rep(2, 2, 2), [1, 3, 4], 4),
        (reps.regular_rep(3, 2), [1, 3, 6, 8, 9], 6),
    ]:
        calls.clear()
        path = _write_rep(tmp_path, rep)
        code, out, _ = run(capsys, "rep-analyze", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["socle_dims"] == dims
        assert len(calls) == expected


def test_rep_analyze_validates_once(capsys, tmp_path, monkeypatch):
    calls = []
    validate = reps.validate

    def counted(rep):
        calls.append(rep)
        return validate(rep)

    monkeypatch.setattr(reps, "validate", counted)
    path = _write_rep(tmp_path, reps.regular_rep(2, 3))
    code, _, _ = run(capsys, "rep-analyze", path, "--chi", "1,7")
    assert code == 0 and len(calls) == 1
    # an invalid rep still fails with the file named, after the --chi checks
    bad = {"p": 3, "dim": 2, "generators": [[[0, 1], [1, 0]]]}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, out, err = run(capsys, "rep-analyze", str(bad_path))
    assert code == cli.EXIT_INPUT and out == ""
    assert err == f"error: {bad_path}: generator 0 does not have order dividing 3\n"
    code, _, err = run(capsys, "rep-analyze", str(bad_path), "--chi", "0")
    assert code == cli.EXIT_INPUT and "--chi" in err


def test_rep_analyze_without_generators(capsys, tmp_path):
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({"p": 2, "dim": 2, "generators": []}))
    code, out, _ = run(capsys, "rep-analyze", str(path))
    assert code == 0
    assert out.splitlines() == ["socle dims: 2", "verdict: zero (all classes vanish)"]


def test_rep_analyze_refuses_extension_field_chi(capsys, tmp_path):
    pr = reps.basic_rep(2, 2, 1)
    path = _write_rep(tmp_path, pr.rep, pr.basepoint)
    code, out, err = run(capsys, "rep-analyze", path, "--chi", "3")
    assert code == cli.EXIT_INPUT
    assert "prime field" in err
    # without --chi the same file analyzes fine
    code, out, _ = run(capsys, "rep-analyze", path)
    assert code == 0
    assert "socle dims: 1, 2" in out


@pytest.mark.parametrize("modulus", [None, [3, 0, 1]])
def test_rep_analyze_rejects_extension_field_over_the_bound(capsys, tmp_path, modulus):
    obj = {"p": 65521, "r": 2, "dim": 1, "generators": [[[[1, 0]]]]}
    if modulus is not None:
        obj["modulus"] = modulus
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, out, err = run(capsys, "rep-analyze", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_INPUT and out == ""
    assert "MAX_EXTENSION_ORDER" in err


def test_rep_analyze_rejects_p_over_the_primality_bound(capsys, tmp_path):
    path = tmp_path / "big-p.json"
    path.write_text(f'{{"p": {_BIG_COMPOSITE}, "dim": 1, "generators": [[[1]]]}}')
    code, out, err = run(capsys, "rep-analyze", str(path))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"error: {path}: {_PRIMALITY_BOUND}\n"


def test_rep_analyze_rejects_dim_over_the_bound(capsys, tmp_path, monkeypatch):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": 2, "dim": 100000, "generators": []}))

    def forbidden(*args, **kwargs):
        raise AssertionError("built a matrix")

    monkeypatch.setattr(ff.MatrixFF, "identity", classmethod(forbidden))
    start = time.perf_counter()
    code, out, err = run(capsys, "rep-analyze", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_INPUT and out == ""
    assert "MAX_REP_DIM = 256" in err
    # the bound itself is admitted
    path.write_text(json.dumps({"p": 2, "dim": reps.MAX_REP_DIM, "generators": []}))
    monkeypatch.undo()
    code, out, _ = run(capsys, "rep-analyze", str(path))
    assert code == 0 and out.startswith(f"socle dims: {reps.MAX_REP_DIM}\n")


def test_rep_analyze_largest_admitted_extension_field(capsys, tmp_path):
    pr = reps.basic_rep(251, 2, 1)  # GF(251^2), q = 63001
    path = _write_rep(tmp_path, pr.rep, pr.basepoint)
    code, out, _ = run(capsys, "rep-analyze", path)
    assert code == 0
    assert out.splitlines() == [
        "socle dims: 1, 2",
        "verdict: reduced to rank 2",
        "  pi 1 0",
        "  pi 0 1",
    ]


def test_rep_analyze_missing_file(capsys):
    code, _, err = run(capsys, "rep-analyze", "/nonexistent/rep.json")
    assert code == cli.EXIT_INPUT


def test_verify_named_suites(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "lowest-degrees", "--suite", "witnesses"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("pass") for line in lines)


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == cli.EXIT_INPUT


def test_verify_failure_gives_check_exit_code(capsys, monkeypatch):
    from modchar import verify

    def broken(profile):
        return verify.SuiteResult("witnesses", False, "injected failure", 0.0)

    monkeypatch.setitem(verify.ALL_SUITES, "witnesses", broken)
    code, out, _ = run(capsys, "verify", "--suite", "witnesses")
    assert code == cli.EXIT_CHECK_FAILURE
    assert "FAIL" in out and "witnesses" in out


def test_verify_dickson_sign_mismatch_is_a_check_failure(capsys, monkeypatch):
    from modchar import dickson

    def mismatch(p, n, i):
        raise dickson.IdentityFailure("injected sign mismatch")

    monkeypatch.setattr(dickson, "product_identity_check", mismatch)
    code, out, _ = run(capsys, "verify", "--suite", "dickson", "--format", "json")
    assert code == cli.EXIT_CHECK_FAILURE
    (result,) = json.loads(out)["results"]
    assert not result["ok"]
    assert "p=2, n=1" in result["detail"] and "i=0" in result["detail"]
    assert "injected sign mismatch" in result["detail"]


def test_verify_route_that_raises_fails_its_suite(capsys, monkeypatch):
    # a ValueError inside a checked route is a failed check (exit 1), not
    # bad user input (exit 3), and the suites after it still run
    from modchar import dickson

    def unreachable(rep):
        raise reps.ReductionError("conjugation does not reach the basic matrices")

    def broken_newton(*args):
        raise ValueError("injected newton fault")

    monkeypatch.setattr(reps, "iso_to_basic", unreachable)
    monkeypatch.setattr(dickson, "newton_check", broken_newton)
    suites = ("--suite", "filtration", "--suite", "dickson", "--suite", "witnesses")
    code, out, err = run(capsys, "verify", *suites)
    assert code == cli.EXIT_CHECK_FAILURE and err == ""
    filtration, dickson_line, witnesses = out.splitlines()
    assert filtration.startswith("FAIL  filtration")
    assert filtration.endswith("ReductionError: conjugation does not reach the basic matrices")
    assert dickson_line.startswith("FAIL  dickson-identities")
    assert dickson_line.endswith("ValueError: injected newton fault")
    assert witnesses.startswith("pass  witnesses")


def test_closed_stdout_exits_quietly():
    # the reader keeps one line of a 278 kB listing and closes the pipe:
    # exit 128 + SIGPIPE, with no traceback on stderr
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "modchar.cli", "basis", "--p", "2", "--max-degree", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"0: 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    assert err == b""


def test_internal_fault_has_its_own_exit_code(capsys, monkeypatch):
    def stalled(args):
        raise AssertionError("socle filtration stalled")

    monkeypatch.setitem(cli._COMMANDS, "basis", stalled)
    code, out, err = run(capsys, "basis", "--p", "2", "--max-degree", "1")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: socle filtration stalled\n"


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODCHAR_CACHE", str(tmp_path))
    code, out1, _ = run(capsys, "tuples", "--p", "2", "--n", "2", "--max", "5")
    assert code == 0
    assert list(tmp_path.glob("*.out"))
    code, out2, _ = run(capsys, "tuples", "--p", "2", "--n", "2", "--max", "5")
    assert out1 == out2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
