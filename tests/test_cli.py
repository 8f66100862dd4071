"""End-to-end tests of the command-line interface."""

import json
import os
import pstats

import pytest

from qcharsum.cli import build_parser, main, parse_ratfunc
from qcharsum.exact import RatFunc
from qcharsum.verify import run_check


Q = RatFunc.x()


def test_parse_ratfunc_values():
    assert parse_ratfunc("q") == Q
    assert parse_ratfunc("-1/q") == -1 / Q
    assert parse_ratfunc("q^(-2)") == 1 / Q**2
    assert parse_ratfunc("q**2 - q") == Q**2 - Q
    assert parse_ratfunc("(q+1)*(q-1)/q") == (Q**2 - 1) / Q
    assert parse_ratfunc(" 2 / (q - 1) ") == 2 / (Q - 1)
    assert parse_ratfunc("3") == RatFunc.const(3)
    assert parse_ratfunc("-(q+2)^2") == -((Q + 2) ** 2)


def test_parse_ratfunc_rejects_garbage():
    for bad in ("q+", "x", "2q", "q^q", "1//2", "", "q^(1/2)",
                "(" * 1000 + "q" + ")" * 1000, "-" * 2000 + "q",
                '__import__("os")', "q.real", "q(2)", "0x10", "1_0", "True",
                "1e3", "1j", "~q", "q%2", "q<q", "[q]", "q^2^3"):
        with pytest.raises(ValueError):
            parse_ratfunc(bad)


def test_hl_value_command(capsys):
    rc = main(["hl-value", "--lam", "2", "--z", "-1/q", "--t", "1/q"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    from qcharsum.hl import hl_principal

    expect = hl_principal([2], -1 / Q, 1 / Q)
    assert out == str(expect)


def test_hl_value_lambda_alias(capsys):
    rc = main(["hl-value", "--lambda", "1,1", "--z", "1/q", "--t", "-1"])
    assert rc == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("lam, z", [("1", "1/0"), ("2,1", "1")])
def test_hl_value_division_by_zero_is_usage_error(capsys, lam, z):
    # 1/0 fails while parsing z; at z = 1 the factor (z;z)_n vanishes.
    rc = main(["hl-value", "--lam", lam, "--z", z, "--t", "1/q"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_single_check(capsys, tmp_path):
    json_path = tmp_path / "out.json"
    tsv_path = tmp_path / "out.tsv"
    rc = main(
        [
            "verify",
            "--id",
            "weyl-A,weyl-B",
            "--nmax",
            "4",
            "--json",
            str(json_path),
            "--tsv",
            str(tsv_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] weyl-A" in out
    assert "[PASS] weyl-B" in out
    assert "2 passed, 0 failed (" in out

    rows = json.loads(json_path.read_text())
    assert [r["id"] for r in rows] == ["weyl-A", "weyl-B"]
    assert all(r["status"] == "pass" for r in rows)
    assert all(r["params"] == {"nmax": 4} for r in rows)

    tsv = tsv_path.read_text().rstrip("\n").split("\n")
    assert tsv[0] == "id\tstatus\tmillis\twitness\tnote"
    assert len(tsv) == 3


def test_verify_profile_writes_pstats(capsys, tmp_path):
    path = tmp_path / "warcor.prof"
    rc = main(["verify", "--id", "cor-warcor", "--order", "4",
               "--profile", str(path)])
    assert rc == 0
    assert "[PASS] cor-warcor" in capsys.readouterr().out
    functions = {name for _, _, name in pstats.Stats(str(path)).stats}
    assert "_warnaar_lhs" in functions
    assert "run_check" in functions


def test_verify_list(capsys):
    rc = main(["verify", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "thm-even" in out
    assert "oracle-hl-finite" in out
    assert len(out.strip().split("\n")) == 30


def test_verify_quick_does_not_leak_into_later_runs(capsys, monkeypatch):
    monkeypatch.delenv("QCHARSUM_BUDGET", raising=False)
    assert main(["verify", "--id", "weyl-A", "--quick"]) == 0
    assert "QCHARSUM_BUDGET" not in os.environ
    assert run_check("weyl-A").params == {"nmax": 12}


def test_verify_q_reaches_only_the_enumeration_oracles(capsys, tmp_path):
    # The product identities are checked at symbolic q only: verify has no
    # --symbolic option, and --q feeds the checks that compare with an
    # enumeration at integer q.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--symbolic"])
    assert exc.value.code == 2
    assert "--symbolic" in capsys.readouterr().err

    path = tmp_path / "census.json"
    assert main(["verify", "--id", "oracle-poly-census", "--q", "2", "--json", str(path)]) == 0
    (row,) = json.loads(path.read_text())
    assert (row["status"], row["params"]["qs"]) == ("pass", [2])

    path = tmp_path / "prodlem.json"
    assert main(["verify", "--id", "lemma-prodlem-1", "--q", "2", "--json", str(path)]) == 0
    (row,) = json.loads(path.read_text())
    assert (row["status"], row["params"]) == ("pass", {"order": 8})


def test_verify_q_beyond_an_oracle_budget_is_usage_error(capsys, tmp_path):
    # oracle-real-sums enumerates characters for 2 <= q <= 5 only: --q 7
    # (or 1) is refused before any check runs, naming the check and its bound.
    path = tmp_path / "out.json"
    for q in ("7", "2,1"):
        assert main(["verify", "--q", q, "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "'oracle-real-sums' supports 2 <= q <= 5" in err
        assert "[PASS]" not in out and "[FAIL]" not in out and not path.exists()
    # the orbit census runs to q <= 9
    assert main(["verify", "--id", "oracle-poly-census", "--q", "7", "--json", str(path)]) == 0
    (row,) = json.loads(path.read_text())
    assert (row["status"], row["params"]["qs"]) == ("pass", [7])


def test_verify_empty_q_list_is_usage_error(capsys, tmp_path):
    # --q , names no q: the oracle would compare no row, so the run is
    # refused before any check runs.
    path = tmp_path / "out.json"
    assert main(["verify", "--id", "oracle-real-sums", "--q", ",", "--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "'oracle-real-sums' needs at least one q" in err
    assert "[PASS]" not in out and "[FAIL]" not in out and not path.exists()


def test_verify_unknown_id_is_usage_error(capsys):
    rc = main(["verify", "--id", "thm-bogus"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--tag", "nosuch"], ["--id", "weyl-A", "--tag", "hl"]])
def test_verify_selection_of_no_check_is_usage_error(capsys, argv):
    # a run of no check is refused, not reported as "0 passed, 0 failed"
    assert main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "known tags: " in err


def test_census_formula_matches_brute(capsys):
    rc = main(
        ["census", "--flavor", "u", "--dmax", "3", "--q", "2,3", "--source", "both"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    assert lines[0] == "flavor\td\tq\tN\tNstar\tMstar\tsource"
    seen = {}
    for line in lines[1:]:
        flavor, d, q, n, nstar, mstar, source = line.split("\t")
        key = (flavor, d, q)
        values = (n, nstar, mstar)
        if key in seen:
            assert seen[key] == values, key
        else:
            seen[key] = values
    assert len(seen) == 6  # 3 degrees x 2 field sizes


def test_degree_sum_numeric(capsys):
    rc = main(["degree-sum", "--group", "gl", "--n", "2", "--q", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "14"


def test_degree_sum_symbolic_default_parity(capsys):
    rc = main(["degree-sum", "--group", "u", "--n", "3", "--symbolic"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "q^4 - q^3 + 2*q^2 - q"


@pytest.mark.parametrize("argv", [
    ["degree-sum", "--group", "gl", "--n", "2", "--q", "1"],
    ["degree-sum", "--group", "gl", "--n", "-1", "--q", "3"],
    ["eps-split", "--n", "-1", "--q", "3"],
    # every q is validated before the table header is printed
    ["census", "--flavor", "gl", "--dmax", "2", "--q", "1"],
    ["census", "--flavor", "gl", "--dmax", "2", "--q", "2,1", "--source", "both"],
    ["hl-value", "--lam", "1", "--z", "(" * 1000 + "q" + ")" * 1000, "--t", "1/q"],
])
def test_bad_q_or_rank_is_a_usage_error(capsys, argv):
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_degree_sum_weyl(capsys):
    rc = main(["degree-sum", "--group", "weylA", "--n", "4"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "10"


def test_involutions_command(capsys):
    rc = main(["involutions", "--group", "gl", "--n", "2", "--q", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "14"
    rc = main(["involutions", "--group", "weylB", "--n", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "20"


def test_missing_scale_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["degree-sum", "--group", "gl", "--n", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    # --q and --symbolic exclude each other
    (["degree-sum", "--group", "gl", "--n", "2", "--q", "3", "--symbolic"], "--symbolic"),
    (["involutions", "--group", "u", "--n", "2", "--symbolic", "--q", "3"], "--q"),
    (["eps-split", "--n", "2", "--q", "3", "--symbolic"], "--symbolic"),
    # a Weyl group takes no scale flag at all
    (["degree-sum", "--group", "weylA", "--n", "3", "--q", "4"], "--q"),
    (["degree-sum", "--group", "weylD", "--n", "3", "--symbolic"], "--symbolic"),
    (["involutions", "--group", "weylB", "--n", "3", "--parity", "odd"], "--parity"),
])
def test_contradictory_scale_flags_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and flag in err


def test_the_parser_is_built_once_and_reused(capsys):
    # a usage error on the shared parser leaves the next parse unchanged
    assert build_parser() is build_parser()
    argv = ["degree-sum", "--group", "gl", "--n", "2", "--q", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(argv[:-2])
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_parity_contradiction_is_reported(capsys):
    rc = main(["involutions", "--group", "u", "--n", "2", "--q", "4",
               "--parity", "odd"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_eps_split_command(capsys):
    rc = main(["eps-split", "--n", "2", "--q", "3"])
    assert rc == 0
    lines = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().split("\n")
    )
    assert int(lines["eps=+1"]) - int(lines["eps=-1"]) == int(lines["difference"])
    assert int(lines["eps=+1"]) + int(lines["eps=-1"]) == int(lines["sum"])
    assert lines["sum"] == "12"
    assert lines["difference"] == "8"


def test_eps_split_symbolic(capsys):
    rc = main(["eps-split", "--n", "2", "--symbolic", "--parity", "odd"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eps=-1\tq - 1" in out


def test_eps_split_takes_no_group(capsys):
    # The split is defined for the unitary group only, so the command names
    # no group: a --group option is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["eps-split", "--group", "u", "--n", "2", "--q", "3"])
    assert exc.value.code == 2
    assert "--group" in capsys.readouterr().err


def test_brute_involutions_command(capsys):
    rc = main(["brute-involutions", "--group", "u", "--n", "2", "--q", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "group order\t96" in out
    assert "agreement\tyes" in out


def test_brute_involutions_rejects_a_negative_rank(capsys):
    rc = main(["brute-involutions", "--group", "gl", "--n", "-1", "--q", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rank must be >= 0, got -1\n"
