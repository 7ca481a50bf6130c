"""Command-line behavior: frozen outputs, formats, exit codes, cache."""

import hashlib
import json
import time

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


def test_chi_non_invariant_is_input_error(capsys):
    code, _, err = run(capsys, "chi", "--p", "3", "--n", "2", "--alpha", "y")
    assert code == cli.EXIT_INPUT
    assert "invariant" in err


def test_chi_parse_error(capsys):
    code, _, err = run(capsys, "chi", "--p", "3", "--n", "1", "--alpha", "q^2")
    assert code == cli.EXIT_INPUT
    assert "parse" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--p", "2"])
    assert exc.value.code == cli.EXIT_USAGE


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
}


@pytest.mark.parametrize("p, n, fmt", sorted(DICKSON_DIGESTS))
def test_dickson_output_is_frozen(capsys, p, n, fmt):
    code, out, _ = run(capsys, "dickson", "--p", str(p), "--n", str(n), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DICKSON_DIGESTS[p, n, fmt]


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
    assert list(tmp_path.glob("*.json"))
    code, cached, _ = run(capsys, *args)
    assert code == 0
    assert cached == fresh
    # and identical to a run without any cache
    code, bare, _ = run(capsys, "dickson", "--p", "2", "--n", "2", "--format", "json")
    assert bare == fresh


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
    assert len(list(tmp_path.glob("*.json"))) == 2


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
    reduce_from_stages = reps.reduce_from_stages

    def counted(rep, stages):
        calls.append(rep)
        return reduce_from_stages(rep, stages)

    monkeypatch.setattr(reps, "reduce_from_stages", counted)
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
    assert list(tmp_path.glob("*.json"))
    code, out2, _ = run(capsys, "tuples", "--p", "2", "--n", "2", "--max", "5")
    assert out1 == out2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
