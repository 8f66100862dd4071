"""Tests for the check registry and runner plumbing.

Includes a mutation probe: corrupting a formula that one side of a check
depends on must flip that check to "fail" with a witness naming the first
rank where the two sides disagree.  This guards against checks that compare
a quantity with itself.
"""

import dataclasses
import inspect
import json
from fractions import Fraction
from functools import lru_cache

import pytest

import qcharsum.chars as chars
import qcharsum.exact as exact
import qcharsum.groups as groups
import qcharsum.hl as hl
import qcharsum.qseries as qseries
import qcharsum.verify as verify
from qcharsum.cli import main
from qcharsum.exact import QPoly, RatFunc, Series, qpow
from qcharsum.polycount import count_selfdual_and_pairs, count_u_irreducible
from qcharsum.verify import (
    REGISTRY,
    reports_to_json,
    reports_to_tsv,
    run_all,
    run_check,
    summary_lines,
)
from _series_ref import exp, log
from test_independence import SHARED, _cold


FROZEN_IDS = [
    "weyl-A",
    "weyl-B",
    "weyl-D",
    "lemma-prodlem-1",
    "lemma-prodlem-2",
    "thm-genfnGL",
    "thm-even",
    "thm-odd",
    "cor-iden",
    "cor-cort",
    "remark-igl-table",
    "u-prodlems",
    "thm-degreesU",
    "thm-warid",
    "cor-warcor",
    "prop-involU-even",
    "prop-involU-odd",
    "cor-epsplit-even",
    "cor-epsplit-odd",
    "thm-unsumeven",
    "cor-unsumeven-pm",
    "cor-genfn-even-alt",
    "thm-unsumodd",
    "example-u2-even",
    "example-u3-even",
    "example-u2-odd",
    "oracle-brute-involutions",
    "oracle-real-sums",
    "oracle-poly-census",
    "oracle-hl-finite",
]


def test_registry_is_frozen():
    assert list(REGISTRY) == FROZEN_IDS


def test_registry_specs_well_formed():
    for cid, spec in REGISTRY.items():
        assert spec.id == cid
        assert spec.description
        assert isinstance(spec.tags, tuple)
        # quick-budget values may only shrink declared parameters
        assert set(spec.quick) <= set(spec.params), cid
        assert callable(spec.fn)
        lhs, rhs = spec.sides
        assert callable(lhs) and callable(rhs), cid


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        run_check("thm-nonexistent")
    with pytest.raises(KeyError):
        run_all(ids=["weyl-A", "bogus"])


def test_unknown_override_raises():
    with pytest.raises(ValueError):
        run_check("weyl-A", bogus_knob=3)


def test_small_check_passes():
    r = run_check("weyl-A", nmax=5)
    assert r.status == "pass"
    assert r.witness is None
    assert r.params == {"nmax": 5}
    assert r.millis >= 0


def test_trivial_order_passes():
    # order=0 still compares one row, u^0, so the window is not empty
    r = run_check("cor-iden", order=0)
    assert r.status == "pass"


def test_a_comparison_of_no_rows_fails():
    # nmax=0 leaves both sides of remark-igl-table without a row: nothing
    # was compared, so the check cannot pass.  An empty q list is refused
    # up front, like a q outside the budget.
    r = run_check("remark-igl-table", nmax=0)
    assert (r.status, r.witness) == ("fail", "no rows compared")
    for check_id in ("oracle-real-sums", "oracle-poly-census"):
        with pytest.raises(ValueError, match="needs at least one q"):
            run_check(check_id, qs=[])


def test_run_all_id_and_tag_filters():
    reports = run_all(ids=["weyl-A", "weyl-B"])
    assert [r.id for r in reports] == ["weyl-A", "weyl-B"]
    reports = run_all(tag="weyl", overrides={"nmax": 4})
    assert [r.id for r in reports] == ["weyl-A", "weyl-B", "weyl-D"]
    assert all(r.params == {"nmax": 4} for r in reports)


def test_a_selection_of_no_check_raises():
    # an unknown tag, or ids and a tag no check has together, would run
    # nothing and report 0 passed; the error names the known tags
    for selection in ({"tag": "nosuch"}, {"ids": ["weyl-A"], "tag": "hl"}, {"ids": []}):
        with pytest.raises(KeyError, match="known tags: .*weyl"):
            run_all(**selection)


def test_overrides_apply_only_where_declared():
    reports = run_all(ids=["weyl-A", "example-u2-even"], overrides={"nmax": 3})
    by_id = {r.id: r for r in reports}
    assert by_id["weyl-A"].params == {"nmax": 3}
    assert by_id["example-u2-even"].params == {}
    assert all(r.status == "pass" for r in reports)


def test_quick_budget_argument():
    r = run_check("weyl-A", budget="quick")
    assert r.params == {"nmax": 8}
    with pytest.raises(ValueError):
        run_check("weyl-A", budget="bogus")


def test_crash_surfaces_as_failure():
    # a non-integer bound reaches range() inside the runner and raises;
    # the runner must convert that to a failed report, not an exception
    r = run_check("weyl-A", nmax="six")
    assert r.status == "fail"
    assert r.witness.startswith("error:")


def _corrupt_gl_order(monkeypatch):
    real = chars.gl_group_order

    def corrupted(n, q=None):
        value = real(n, q)
        return value + 1 if n == 3 else value

    monkeypatch.setattr(chars, "gl_group_order", corrupted)


def _corrupt_u_order(monkeypatch):
    real = chars.u_group_order

    def corrupted(n, q=None):
        value = real(n, q)
        return value + 1 if n == 2 else value

    monkeypatch.setattr(chars, "u_group_order", corrupted)


def _corrupt_gauss_row(monkeypatch, key):
    # Every term of the closed-form involution count at key = (eps, n) gains
    # x^shift: its signed list co is 1 more at x^0.  (co[0] + 1 alone would
    # cancel in even characteristic at n = 2, 3, where the terms r = 0, 1
    # have weights +1, -1 at the same shift.)  The terms are read through
    # the corrupted binding only inside the sum at that key.
    real_sum, real_terms = chars._involution_sum_ic, chars._involution_terms

    def corrupted_terms(n, e):
        for shift, weight, co in real_terms(n, e):
            yield shift, weight, [co[0] + (1 if weight > 0 else -1)] + co[1:]

    def corrupted(eps, n, e):
        if (eps, n) != key:
            return real_sum(eps, n, e)
        with monkeypatch.context() as inner:
            inner.setattr(chars, "_involution_terms", corrupted_terms)
            return real_sum(eps, n, e)

    monkeypatch.setattr(chars, "_involution_sum_ic", corrupted)


def test_mutation_is_detected(monkeypatch):
    # Corrupt the terms of the rank-3 closed-form involution count at x = q.
    # The generating-function side does not read them.  The comparison must
    # now fail exactly at n=3.
    _corrupt_gauss_row(monkeypatch, (1, 3))
    r = run_check("thm-even", nmax=4)
    assert r.status == "fail"
    assert "n=3" in r.witness
    r = run_check("thm-odd", nmax=4)
    assert r.status == "fail"
    assert "n=3" in r.witness


def test_mutation_is_detected_with_warm_memo(monkeypatch):
    # The generating-function memo holds series only, so with every
    # expansion already cached the corrupted terms still show.
    for check_id in ("thm-even", "thm-odd"):
        assert run_check(check_id, nmax=4).status == "pass"
    _corrupt_gauss_row(monkeypatch, (1, 3))
    for check_id in ("thm-even", "thm-odd"):
        r = run_check(check_id, nmax=4)
        assert r.status == "fail"
        assert "n=3" in r.witness


def test_mutation_in_u_order_is_detected(monkeypatch):
    _corrupt_gauss_row(monkeypatch, (-1, 2))
    r = run_check("prop-involU-even", nmax=3)
    assert r.status == "fail"
    assert "n=2" in r.witness


def test_mutation_in_u_order_is_detected_with_warm_memo(monkeypatch):
    assert run_check("prop-involU-even", nmax=3).status == "pass"
    _corrupt_gauss_row(monkeypatch, (-1, 2))
    r = run_check("prop-involU-even", nmax=3)
    assert r.status == "fail"
    assert "n=2" in r.witness


def test_group_order_mutation_fails_the_brute_oracle(monkeypatch):
    # The involution counts do not read the group orders; the order rows of
    # oracle-brute-involutions do, so the rank-3 gl and rank-2 u corruptions
    # still fail it, at the corrupted case.
    for corrupt, case in ((_corrupt_gl_order, "gl(3,"), (_corrupt_u_order, "u(2,")):
        corrupt(monkeypatch)
        r = run_check("oracle-brute-involutions")
        assert r.status == "fail"
        assert r.witness.startswith(case), r.witness
        monkeypatch.undo()
    assert run_check("oracle-brute-involutions").status == "pass"


def _corrupt_order_ic(monkeypatch, key):
    # Add 1 to the constant term of the memoized integer product at `key`,
    # around the binding, so the memo itself stays clean.
    real = chars._order_ic

    def corrupted(eps, n):
        ic = real(eps, n)
        return (ic[0] + 1,) + ic[1:] if (eps, n) == key else ic

    monkeypatch.setattr(chars, "_order_ic", corrupted)


def test_mutation_in_order_product_is_detected(monkeypatch):
    # The rank-3 product reaches the gamma-weighted sums of cor-iden and
    # cor-cort only (their product side is the stored series), so they part
    # exactly at u^3; the rank-2 unitary product reaches the group-order
    # rows of oracle-brute-involutions only, at its first U(2, q) row.
    _corrupt_order_ic(monkeypatch, (1, 3))
    for check_id in ("cor-iden", "cor-cort"):
        r = run_check(check_id, order=4)
        assert r.status == "fail"
        assert r.witness.startswith("u^3: ")
    monkeypatch.undo()
    _corrupt_order_ic(monkeypatch, (-1, 2))
    r = run_check("oracle-brute-involutions", budget="quick")
    assert r.status == "fail"
    assert r.witness.startswith("u(2,2) order: ")
    monkeypatch.undo()
    for check_id in ("cor-iden", "cor-cort"):
        assert run_check(check_id, order=4).status == "pass"
    assert run_check("oracle-brute-involutions", budget="quick").status == "pass"
    # No two sides share the product (no row of the table of shared
    # ingredients names _order_ic): the odd expressions of thm-unsumodd and
    # example-u2-odd compare (-1)^n q^N E(1/q), with no unitary prefactor, so
    # neither check reads it, and oracle-brute-involutions still catches it.
    assert not any("chars._order_ic" in names for _, names, _ in SHARED)

    def unread(eps, n):
        raise AssertionError("_order_ic read")

    monkeypatch.setattr(chars, "_order_ic", unread)
    for check_id in ("thm-unsumodd", "example-u2-odd"):
        assert run_check(check_id, budget="quick").status == "pass", check_id
    monkeypatch.undo()
    _corrupt_order_ic(monkeypatch, (-1, 2))
    assert run_check("oracle-brute-involutions", budget="quick").status == "fail"


def test_mutation_in_named_gf_is_detected_with_warm_memo(monkeypatch):
    # The rank-3 value of the even linear-flavor series off by one, wrapped
    # around the binding the readers call, outside the memo: the series side
    # of thm-even must disagree first at n=3, and the memo must stay clean.
    assert run_check("thm-even", nmax=4).status == "pass"
    real = chars.named_gf_value

    def corrupted(name, parity, n):
        value = real(name, parity, n)
        if name != "gl_real_gf" or parity != "even" or n != 3:
            return value
        return value + 1

    monkeypatch.setattr(chars, "named_gf_value", corrupted)
    r = run_check("thm-even", nmax=4)
    assert r.status == "fail"
    assert "n=3" in r.witness
    monkeypatch.undo()
    assert run_check("thm-even", nmax=4).status == "pass"


def test_mutation_in_class_counts_is_detected_with_warm_memo(monkeypatch):
    # The blocks and the class counts are memoized behind the binding, so
    # with both warm a pair count off by one at d = 2 still shows, first at
    # u^4 (the u^(2d) term of G_2), and the memos stay clean.
    ids = ("thm-genfnGL", "thm-degreesU")
    for check_id in ids:
        assert run_check(check_id, order=6).status == "pass"
    real = chars.count_selfdual_and_pairs

    def corrupted(*args, **kwargs):
        counts = real(*args, **kwargs)
        if counts.d != 2:
            return counts
        return dataclasses.replace(counts, m_pairs=counts.m_pairs + 1)

    monkeypatch.setattr(chars, "count_selfdual_and_pairs", corrupted)
    for check_id in ids:
        r = run_check(check_id, order=6)
        assert r.status == "fail"
        assert r.witness.startswith("parity even: u^4:")
    monkeypatch.undo()
    for check_id in ids:
        assert run_check(check_id, order=6).status == "pass"


def _one_more_pair_at_2(monkeypatch):
    # M*(2, q) off by one at the binding the product lemmas read.
    real = verify.count_selfdual_and_pairs

    def corrupted(*args, **kwargs):
        counts = real(*args, **kwargs)
        return dataclasses.replace(counts, m_pairs=counts.m_pairs + 1) if counts.d == 2 else counts

    monkeypatch.setattr(verify, "count_selfdual_and_pairs", corrupted)


def _one_more_u_class_at_3(monkeypatch):
    real = verify.count_u_irreducible
    monkeypatch.setattr(verify, "count_u_irreducible",
                        lambda d: real(d) + (d == 3))


def _extra_degree_in_s3(monkeypatch):
    # S_3 given a fourth character of degree 1, around the memo.
    real = chars._sym_degrees
    monkeypatch.setattr(chars, "_sym_degrees", lambda m: real(m) + ((1,) if m == 3 else ()))


def _square_test_rejects_the_identity(monkeypatch):
    # The row-code test of g*g = I answers no on the identity, behind a
    # fresh memo of the enumeration so the cached counts stay clean.
    real = groups._rows_square_to_identity
    monkeypatch.setattr(groups, "_rows_square_to_identity",
                        lambda T, rows: rows != T.units and real(T, rows))
    monkeypatch.setattr(groups, "_enumerate_stats",
                        lru_cache(maxsize=None)(groups._enumerate_stats.__wrapped__))


def _one_more_selfdual_census_class_at_2(monkeypatch):
    # The orbit census finds one self-dual class too many at degree 2.
    real = verify.brute_poly_census

    def corrupted(d, q, flavor="gl"):
        counts = real(d, q, flavor)
        return dataclasses.replace(counts, n_selfdual=counts.n_selfdual + 1) if d == 2 else counts

    monkeypatch.setattr(verify, "brute_poly_census", corrupted)


def _gauss_row_off_at_u2(monkeypatch):
    _corrupt_gauss_row(monkeypatch, (-1, 2))


def _gauss_row_off_at_gl3(monkeypatch):
    _corrupt_gauss_row(monkeypatch, (1, 3))


def _corrupt_f_lam(monkeypatch, key):
    # F_key[0, 1] off by one at the binding the unitary partition sums read.
    real = chars.hl_principal_poly

    def corrupted(lam):
        f = real(lam)
        if tuple(lam) != key:
            return f
        f = dict(f)
        f[0, 1] = f.get((0, 1), 0) + 1
        return f

    monkeypatch.setattr(chars, "hl_principal_poly", corrupted)


def _f_lam_off_at_11(monkeypatch):
    _corrupt_f_lam(monkeypatch, (1, 1))


def _f_lam_off_at_21(monkeypatch):
    _corrupt_f_lam(monkeypatch, (2, 1))


# (corruption of one side's ingredient, check id, the witness it must give)
_PROBES = [
    (_one_more_pair_at_2, "lemma-prodlem-1",
     "identity 1 (symbolic q, parity even): w^2: lhs=q^2 - q + 1, rhs=q^2 - q"),
    (_one_more_pair_at_2, "u-prodlems",
     "identity 1 (symbolic q, parity even): w^2: lhs=q^2 - q + 1, rhs=q^2 - q"),
    (_one_more_pair_at_2, "lemma-prodlem-2",
     "identity 2 (symbolic q, parity even): w^2: lhs=1, rhs=0"),
    (_one_more_u_class_at_3, "u-prodlems",
     "identity 4 (symbolic q, parity even): w^3: lhs=q^3 + q^2 + 1, rhs=q^3 + q^2"),
    (_extra_degree_in_s3, "weyl-A", "n=3: lhs=5, rhs=4"),
    (_extra_degree_in_s3, "weyl-B", "n=3: lhs=22, rhs=20"),
    (_extra_degree_in_s3, "weyl-D", "n=3: lhs=11, rhs=10"),
    (_square_test_rejects_the_identity, "oracle-brute-involutions",
     "gl(2,2) involutions: lhs=3, rhs=4"),
    (_gauss_row_off_at_u2, "oracle-brute-involutions", "u(2,2) involutions: lhs=4, rhs=6"),
    (_gauss_row_off_at_gl3, "oracle-brute-involutions", "gl(3,2) involutions: lhs=22, rhs=24"),
    (_one_more_selfdual_census_class_at_2, "oracle-poly-census",
     "gl d=2 q=2 n_selfdual: lhs=1, rhs=2"),
    (_gauss_row_off_at_u2, "prop-involU-odd", "n=2: lhs=q^2 - 2*q + 4, rhs=q^2 - q + 2"),
    (_gauss_row_off_at_u2, "cor-unsumeven-pm", "n=2 sign +1: lhs=q^2 + 1, rhs=q^2"),
    (_gauss_row_off_at_gl3, "remark-igl-table",
     "n=3: lhs=q^4 + q^3 - q + 2, rhs=q^4 + q^3 - q"),
    (_f_lam_off_at_11, "example-u2-even", "degree sum: lhs=q^2 - 1, rhs=q^2"),
    (_f_lam_off_at_21, "example-u3-even",
     "eps=+1: lhs=q^4 - 3/2*q^3 + q^2, rhs=q^4 - q^3 + q^2"),
    (_f_lam_off_at_11, "example-u2-odd",
     "degree sum: lhs=(q^3 + q^2 - q - 1)/q, rhs=q^2 + q"),
]

# The checks whose probe is a test of its own in this file: check id -> the
# test that corrupts an ingredient of one side and asserts the check fails.
_PROBED_BY_TEST = {
    "thm-genfnGL": "test_mutation_in_class_counts_is_detected_with_warm_memo",
    "thm-even": "test_mutation_is_detected",
    "thm-odd": "test_mutation_is_detected",
    "cor-iden": "test_mutation_in_order_product_is_detected",
    "cor-cort": "test_mutation_in_order_product_is_detected",
    "thm-degreesU": "test_mutation_in_class_counts_is_detected_with_warm_memo",
    "thm-warid": "test_mutation_in_the_gaussian_rows_fails_the_warnaar_summation",
    "cor-warcor": "test_mutation_in_hl_principal_poly_is_detected",
    "prop-involU-even": "test_mutation_in_u_order_is_detected",
    "cor-epsplit-even": "test_exact_halving_rejects_a_real_series_off_by_one",
    "cor-epsplit-odd": "test_exact_halving_rejects_a_real_series_off_by_one",
    "thm-unsumeven": "test_mutation_in_the_unitary_sums_f_lam_is_detected",
    "cor-genfn-even-alt": "test_mutation_in_the_unitary_sums_f_lam_is_detected",
    "thm-unsumodd": "test_mutation_in_the_unitary_sums_f_lam_is_detected",
    "oracle-real-sums": "test_mutation_in_class_factor_is_detected",
    "oracle-hl-finite": "test_mutation_in_hl_principal_is_detected",
}


def test_every_check_has_a_probe():
    assert {cid for _, cid, _ in _PROBES} | set(_PROBED_BY_TEST) == set(REGISTRY)
    for check_id, name in _PROBED_BY_TEST.items():
        assert f'"{check_id}"' in inspect.getsource(globals()[name]), (check_id, name)


def test_declared_q_bounds_are_the_oracle_budgets():
    # verify refuses a --q beyond a check's qmax up front; the bound is the
    # enumeration's own budget, which runs at qmax and raises above it.
    oracles = {"oracle-real-sums": lambda q: chars.real_degree_sum_oracle("gl", 1, q),
               "oracle-poly-census": lambda q: verify.brute_poly_census(1, q).n_plain}
    assert {cid for cid, spec in REGISTRY.items() if spec.qmax} == set(oracles)
    for check_id, oracle in oracles.items():
        qmax = REGISTRY[check_id].qmax
        assert oracle(qmax) > 0
        with pytest.raises(ValueError, match="budget|supports"):
            oracle(qmax + 1)
        for qs in ([2, qmax + 1], [1]):
            with pytest.raises(ValueError, match=f"supports 2 <= q <= {qmax}"):
                run_check(check_id, qs=qs)


@pytest.mark.parametrize("corrupt, check_id, witness", _PROBES,
                         ids=[f"{cid}-{fn.__name__}" for fn, cid, _ in _PROBES])
def test_probe_fails_the_check_with_its_witness(monkeypatch, corrupt, check_id, witness):
    corrupt(monkeypatch)
    r = run_check(check_id, budget="quick")
    assert r.status == "fail"
    assert r.witness == witness
    monkeypatch.undo()
    assert run_check(check_id, budget="quick").status == "pass"


def test_mutation_in_class_factor_is_detected(monkeypatch):
    # The oracle takes every character degree from the hook formula, so a
    # class factor off by one for lam = (2) shows at the first rank with a
    # character carrying (2); the series side never reads the hook formula.
    real = chars._class_factor

    def corrupted(flavor, d, lam, qq):
        value = real(flavor, d, lam, qq)
        return value + 1 if tuple(lam) == (2,) else value

    monkeypatch.setattr(chars, "_class_factor", corrupted)
    r = run_check("oracle-real-sums")
    assert r.status == "fail"
    assert r.witness.startswith("gl n=2 q=2: ")
    monkeypatch.undo()
    assert run_check("oracle-real-sums").status == "pass"


def _corrupt_real_series(monkeypatch, by: int):
    # T's u^3 coefficient moved by `by`, that is (x;x)_3 * by added to its
    # scaled coefficient, around the binding so the memo stays clean.
    real = qseries._u_real_gf
    pochhammer = dict(enumerate(qseries._one_minus_powers((1, 2, 3))))

    def corrupted(e):
        s = real(e)

        def coefficient(n):
            p = dict(s.coefficient(n))
            if n == 3:
                for k, c in pochhammer.items():
                    p[k] = p.get(k, 0) + by * c
            return {k: c for k, c in p.items() if c}
        return qseries.EulerSeries(coefficient)

    monkeypatch.setattr(qseries, "_u_real_gf", corrupted)


def test_eps_split_sum_rows_miss_a_corrupt_real_series(monkeypatch):
    # The eps halves are (T + I)/2 and (T - I)/2 with T the very _u_real_gf
    # series that the "sum" rows of cor-epsplit-* compare their sum with, so
    # those rows cannot see T go wrong.  thm-degreesU and thm-unsumeven hold
    # T against independent routes: with its u^3 coefficient off by two (an
    # odd shift is caught by the exact halving, see below), they fail and
    # the eps-split checks still pass.
    _corrupt_real_series(monkeypatch, 2)
    for check_id in ("thm-degreesU", "thm-unsumeven"):
        assert run_check(check_id, budget="quick").status == "fail", check_id
    for check_id in ("cor-epsplit-even", "cor-epsplit-odd"):
        assert run_check(check_id, budget="quick").status == "pass", check_id


def test_exact_halving_rejects_a_real_series_off_by_one(monkeypatch):
    # The eps halves are halved in integers: with T's u^3 coefficient off by
    # one, (T +- I)/2 has an odd scaled coefficient, and the halving raises.
    _corrupt_real_series(monkeypatch, 1)
    for check_id in ("cor-epsplit-even", "cor-epsplit-odd"):
        r = run_check(check_id, budget="quick")
        assert r.status == "fail", check_id
        assert r.witness == "error: ArithmeticError: eps half: odd coefficient at u^3"


def test_mutation_in_the_gaussian_rows_fails_the_warnaar_summation(monkeypatch):
    # Both sides of thm-warid read partitions._gauss_row: the left side's
    # weights take [m, j]_t over part multiplicities m, the right side's
    # series products take [n, k]_z.  With [2, 1] moved from 1 + t to 1 + 2t
    # at both bindings, the sides still part, first at u^2.
    real = qseries._gauss_row

    def corrupted(n):
        row = real(n)
        return (row[0], (1, 2), row[2]) if n == 2 else row

    for module in (verify, qseries):
        monkeypatch.setattr(module, "_gauss_row", corrupted)
    r = run_check("thm-warid", order=4)
    assert r.status == "fail"
    assert r.witness.startswith("u^2: ")
    monkeypatch.undo()
    assert run_check("thm-warid", order=4).status == "pass"


@pytest.mark.parametrize("modules", [(chars, qseries), (chars,)],
                         ids=["both-sides", "class-product-only"])
def test_mutation_in_the_gaussian_rows_fails_the_class_product_checks(monkeypatch, modules):
    # Both sides of thm-genfnGL and thm-degreesU multiply series by the
    # q-binomial convolution over partitions._gauss_row: the class product
    # in chars, the closed product form in qseries.  With the q^1
    # coefficient of [4, 2]_q raised by 1, at both bindings or at chars'
    # alone, and every memo cold, both checks still fail, first at u^4.
    real = qseries._gauss_row

    def corrupted(n):
        row = real(n)
        if n != 4:
            return row
        middle = list(row[2])
        middle[1] += 1
        return row[:2] + (tuple(middle),) + row[3:]

    _cold()
    try:
        for module in modules:
            monkeypatch.setattr(module, "_gauss_row", corrupted)
        for check_id in ("thm-genfnGL", "thm-degreesU"):
            r = run_check(check_id, budget="quick")
            assert r.status == "fail", check_id
            assert r.witness.startswith("parity even: u^4: "), (check_id, r.witness)
    finally:
        monkeypatch.undo()
        _cold()
    for check_id in ("thm-genfnGL", "thm-degreesU"):
        assert run_check(check_id, budget="quick").status == "pass"


def _clear_block_memos():
    chars._assignment_blocks.cache_clear()


def test_mutation_in_fake_degree_reaches_the_class_product_only(monkeypatch):
    # f_(1,1)(y) = y moved to 1 + y, with the block memos cleared so they
    # are rebuilt from it: the class product of thm-genfnGL must fail, and
    # the oracle, which enumerates characters instead, must still pass.
    real = chars._fake_degree

    def corrupted(parts):
        f = real(parts)
        return (f[0] + 1,) + f[1:] if parts == (1, 1) else f

    _clear_block_memos()
    monkeypatch.setattr(chars, "_fake_degree", corrupted)
    try:
        r = run_check("thm-genfnGL", order=4)
        assert r.status == "fail"
        assert r.witness.startswith("parity even: u^2: ")
        assert run_check("oracle-real-sums").status == "pass"
    finally:
        monkeypatch.undo()
        _clear_block_memos()
    assert run_check("thm-genfnGL", order=4).status == "pass"


def test_real_sum_oracle_never_reaches_the_class_product(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle-real-sums must not use the class product")

    for name in ("_fake_degree", "_assignment_blocks", "real_sum_gf_from_classes"):
        monkeypatch.setattr(chars, name, forbidden)
    assert run_check("oracle-real-sums").status == "pass"


def _prodlem_lhs_by_log(flavor, which, order, parity):
    """exp(sum_d -N log(1 + s w^d)) by the generic series log and exp."""
    one = RatFunc.const(1)
    total = Series.constant(one * 0, order)
    for d in range(1, order + 1):
        if which == 4:
            terms = [(-1, count_u_irreducible(d))]
        else:
            s1, s2 = {1: (-1, -1), 2: (1, -1), 3: (1, 1)}[which]
            terms = [(s1, count_selfdual_and_pairs(2 * d, None, flavor, parity).n_selfdual),
                     (s2, count_selfdual_and_pairs(d, None, flavor, parity).m_pairs)]
        for sign, count in terms:
            co = [one] + [one * 0] * order
            co[d] = one * sign
            total = total - log(Series(co, order)) * count
    return exp(total)


@pytest.mark.parametrize("flavor, which", [("gl", 1), ("gl", 2), ("u", 1), ("u", 2),
                                           ("u", 3), ("u", 4)])
def test_prodlem_lhs_matches_the_series_log_route(flavor, which):
    for parity in ("even", "odd"):
        want = _prodlem_lhs_by_log(flavor, which, 8, parity)
        assert verify._prodlem_lhs(flavor, which, 8, parity) == want, parity


def test_iden_rhs_matches_the_term_by_term_sum():
    # the gamma-weighted sums added one RatFunc term at a time
    g = [chars.gl_group_order(j, None) for j in range(11)]
    for n in range(11):
        squared = sum((Fraction(1) / (g[r] * g[n - r]) for r in range(n + 1)),
                      RatFunc.const(0))
        plain = sum((Fraction(1) / (qpow(r * (2 * n - 3 * r)) * g[r] * g[n - 2 * r])
                     for r in range(n // 2 + 1)), RatFunc.const(0))
        for flag, total in ((True, squared), (False, plain)):
            assert verify._iden_rhs_coefficient(n, flag) == total * qpow(n * (n - 1) // 2)


def test_integer_sides_never_reach_series_exp_log_or_inv(monkeypatch):
    # Series.exp and Series.log are gone; Series.inv must stay unreached, and
    # the two class-product checks multiply no series at all.
    def forbidden(*args, **kwargs):
        raise AssertionError("these checks must not use this Series operation")

    qseries._invol_gf.cache_clear()
    qseries._u_real_gf.cache_clear()
    _clear_block_memos()
    monkeypatch.setattr(Series, "inv", forbidden)
    for check_id in ("lemma-prodlem-1", "lemma-prodlem-2", "u-prodlems", "cor-iden",
                     "cor-cort", "weyl-A", "weyl-B", "weyl-D"):
        r = run_check(check_id)
        assert r.status == "pass", (check_id, r.witness)
    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(Series, name, forbidden)
    for check_id in ("thm-genfnGL", "thm-degreesU"):
        r = run_check(check_id)
        assert r.status == "pass", (check_id, r.witness)


def _corrupt_hl_principal(monkeypatch):
    real = verify.hl_principal

    def corrupted(lam, z, t):
        value = real(lam, z, t)
        if tuple(lam) == (2, 1):
            return value + qpow(-2)
        return value

    monkeypatch.setattr(verify, "hl_principal", corrupted)


def test_mutation_in_hl_principal_is_detected(monkeypatch):
    # Corrupt P_(2,1) on the tableau side; the finite oracle must disagree.
    _corrupt_hl_principal(monkeypatch)
    r = run_check("oracle-hl-finite", sizemax=4)
    assert r.status == "fail"
    assert r.witness.startswith("lam=[2,1]")


def test_mutation_in_hl_principal_is_detected_with_warm_memo(monkeypatch):
    # The memos sit behind hl_principal, so with every value already cached
    # the corrupted public name still reaches the check.
    assert run_check("oracle-hl-finite", sizemax=4).status == "pass"
    _corrupt_hl_principal(monkeypatch)
    r = run_check("oracle-hl-finite", sizemax=4)
    assert r.status == "fail"
    assert r.witness.startswith("lam=[2,1]")


def test_mutation_in_hl_finite_oracle_is_detected(monkeypatch):
    # Corrupt P_(2,1) on the oracle side; the comparison must fail there.
    real = verify.hl_finite_oracle

    def corrupted(lam, xs, t):
        value = real(lam, xs, t)
        return value + qpow(-2) if tuple(lam) == (2, 1) else value

    monkeypatch.setattr(verify, "hl_finite_oracle", corrupted)
    r = run_check("oracle-hl-finite", sizemax=4)
    assert r.status == "fail"
    assert r.witness.startswith("lam=[2,1]")


def test_mutation_in_the_read_back_fails_the_hl_oracle(monkeypatch):
    # Both routes read their values back through hl._unpack.  Read without
    # the balanced digits (every digit taken as nonnegative), the negative
    # coefficients go wrong on both sides, and not in the same way.
    def unsigned(v, s):
        co = []
        while v > 0:
            co.append(v & ((1 << s) - 1))
            v >>= s
        return co

    hl._hl_value.cache_clear()
    monkeypatch.setattr(hl, "_unpack", unsigned)
    try:
        r = run_check("oracle-hl-finite", sizemax=4)
    finally:
        monkeypatch.undo()
        hl._hl_value.cache_clear()
    assert r.status == "fail"
    assert r.witness.startswith("lam=[1] m=2 ")
    assert run_check("oracle-hl-finite", sizemax=4).status == "pass"


@pytest.mark.parametrize("check_id", ["thm-warid", "cor-warcor"])
def test_mutation_in_hl_principal_poly_is_detected(monkeypatch, check_id):
    # One integer coefficient of F_(2,1) off by one: the scaled left side of
    # the summation differs from the right side first at u^3.
    real = verify.hl_principal_poly

    def corrupted(lam):
        f = real(lam)
        if tuple(lam) != (2, 1):
            return f
        f = dict(f)
        f[0, 1] += 1
        return f

    monkeypatch.setattr(verify, "hl_principal_poly", corrupted)
    r = run_check(check_id, order=4)
    assert r.status == "fail"
    assert r.witness.startswith("u^3: ")


@pytest.mark.parametrize("check_id, witness", [
    ("thm-unsumeven", "n=3: "),
    ("thm-unsumodd", "n=3 expressions: "),
    ("cor-genfn-even-alt", "n=4 sign "),
])
def test_mutation_in_the_unitary_sums_f_lam_is_detected(monkeypatch, check_id, witness):
    # The unitary partition sums read F_lam through chars.hl_principal_poly;
    # with F_(2,1)[0, 1] off by one, each check must fail at the first rank
    # whose sum contains (2,1), and pass again once the binding is restored.
    _f_lam_off_at_21(monkeypatch)
    r = run_check(check_id, nmax=4)
    assert r.status == "fail"
    assert r.witness.startswith(witness)
    monkeypatch.undo()
    assert run_check(check_id, nmax=4).status == "pass"


def test_unitary_partition_sum_checks_take_no_qpoly_route(monkeypatch):
    # The unitary partition sums run in integer lists in w = 1/q.  With
    # the QPoly product and the Rogers-Szego and Pochhammer helpers of hl
    # raising, and every memo cold, the four checks built on them still pass.
    def unreachable(*args, **kwargs):
        raise AssertionError("QPoly route reached")

    _cold()
    monkeypatch.setattr(QPoly, "__mul__", unreachable)
    for name in ("rs_multi", "rogers_szego", "pochhammer_cd"):
        for module in (hl, chars):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
    for check_id in ("thm-unsumeven", "cor-unsumeven-pm", "cor-genfn-even-alt",
                     "thm-unsumodd"):
        r = run_check(check_id, budget="quick")
        assert r.status == "pass", (check_id, r.witness)


def test_no_library_route_builds_a_qpoly(monkeypatch, capsys):
    # RatFunc computes, evaluates at integer q and prints from its integer
    # pair.  With the QPoly views of RatFunc and the QPoly constructor
    # raising, and every memo cold, every check passes and the value
    # examples of the README print their text.
    def unreachable(*args, **kwargs):
        raise AssertionError("QPoly built")

    _cold()
    monkeypatch.setattr(QPoly, "__init__", unreachable)
    monkeypatch.setattr(exact, "_qpoly_over", unreachable)
    assert [(r.id, r.witness) for r in run_all(budget="quick") if r.status != "pass"] == []
    for argv, out in [
        ("degree-sum --group u --n 3 --symbolic", "q^4 - q^3 + 2*q^2 - q\n"),
        ("degree-sum --group gl --n 2 --q 3", "14\n"),
        ("involutions --group weylB --n 3", "20\n"),
        ("eps-split --n 2 --q 3", "eps=+1\t10\neps=-1\t2\nsum\t12\ndifference\t8\n"),
        ("hl-value --lam 2,1 --z -1/q --t 1/q",
         "(-q^5 + q^4 + q^2 + q)/(q^6 + q^5 - q^4 + q^2 - q - 1)\n"),
    ]:
        assert main(argv.split()) == 0, argv
        assert capsys.readouterr().out == out, argv


def test_eps_split_checks_take_the_shared_values_once(monkeypatch):
    # Each eps-split route returns both signs from one computation.  At the
    # default parameters (nmax=6), cor-genfn-even-alt takes I(n - 2k) once
    # per n: 15 involution counts for the 7 values I(0..6); cor-unsumeven-pm
    # takes one closed real sum per n.
    calls = {}
    for name in ("involution_count", "u_real_sum_closed"):
        def counting(*args, _real=getattr(chars, name), _name=name):
            calls.setdefault(_name, []).append(args)
            return _real(*args)
        monkeypatch.setattr(chars, name, counting)
    assert run_check("cor-genfn-even-alt").status == "pass"
    inv = calls.pop("involution_count")
    assert (len(inv), len(set(inv))) == (15, 7)
    assert calls == {}
    assert run_check("cor-unsumeven-pm").status == "pass"
    assert len(calls["u_real_sum_closed"]) == 6


def _clear_f_lam_memos():
    for memo in (hl._hl_value, hl._hl_principal_poly, hl._hl_rows):
        memo.cache_clear()


def test_mutation_in_a_branching_weight_is_detected(monkeypatch):
    # psi_((3,1)/(2))(t) = 1 - t at n = 4 moved to 1 - t^2, around the
    # binding, so the memos that read it are cleared: both P_lam
    # (oracle-hl-finite) and F_lam (thm-warid) are rebuilt from the
    # corrupted weight.
    real = hl._strip_weight
    key = ((3, 1), (2,))

    def corrupted(lam, mu):
        if (lam, mu) != key:
            return real(lam, mu)
        assert real(lam, mu) == [1, -1]
        return [1, 0, -1]

    _clear_f_lam_memos()
    monkeypatch.setattr(hl, "_strip_weight", corrupted)
    try:
        r = run_check("oracle-hl-finite", sizemax=4)
        assert r.status == "fail"
        assert r.witness.startswith("lam=[3,1] m=3 t=-1: ")
        r = run_check("thm-warid", order=4)
        assert r.status == "fail"
        assert r.witness.startswith("u^4: ")
    finally:
        monkeypatch.undo()
        _clear_f_lam_memos()
    assert run_check("oracle-hl-finite", sizemax=4).status == "pass"
    assert run_check("thm-warid", order=4).status == "pass"


def test_hl_checks_take_no_charge_walk(monkeypatch):
    # F_lam comes from the branching rule: with the Kostka-Foulkes table and
    # the charge walk raising, and every memo cold, the checks that read
    # F_lam or P_lam still pass.
    def unreachable(*args):
        raise AssertionError("charge walk reached")

    _cold()
    for name in ("kostka_foulkes", "_charge_column", "charge"):
        monkeypatch.setattr(hl, name, unreachable)
    for check_id in ("thm-warid", "cor-warcor", "thm-unsumeven", "thm-unsumodd",
                     "example-u2-even", "oracle-hl-finite"):
        r = run_check(check_id, budget="quick")
        assert r.status == "pass", (check_id, r.witness)


def test_hl_finite_oracle_check_never_reaches_hl_principal_poly(monkeypatch):
    # The check reads P_lam only through verify.hl_principal.  With those
    # values served from a dict and the F_lam and Kostka route made to
    # raise, the oracle side must still get there from its own definition.
    real = verify.hl_principal
    seen = {}

    def record(lam, z, t):
        r = real(lam, z, t)
        seen[tuple(lam), z, t] = r
        return r

    monkeypatch.setattr(verify, "hl_principal", record)
    assert run_check("oracle-hl-finite", sizemax=4).status == "pass"

    def forbidden(*args):
        raise AssertionError("oracle-hl-finite must not use the integer F_lam")

    monkeypatch.setattr(verify, "hl_principal", lambda lam, z, t: seen[tuple(lam), z, t])
    for name in ("hl_principal", "_hl_value", "hl_principal_poly",
                 "_hl_principal_poly", "_hl_rows", "_strips_below", "_strip_weight",
                 "kostka_foulkes"):
        monkeypatch.setattr(hl, name, forbidden)
    monkeypatch.setattr(verify, "hl_principal_poly", forbidden)
    assert run_check("oracle-hl-finite", sizemax=4).status == "pass"


def test_json_report_shape():
    reports = run_all(ids=["weyl-A"], overrides={"nmax": 4})
    rows = json.loads(reports_to_json(reports))
    assert rows == [
        {
            "id": "weyl-A",
            "millis": rows[0]["millis"],
            "params": {"nmax": 4},
            "status": "pass",
        }
    ]


def test_json_deterministic_modulo_timing():
    a = json.loads(reports_to_json(run_all(ids=["weyl-B"], overrides={"nmax": 5})))
    b = json.loads(reports_to_json(run_all(ids=["weyl-B"], overrides={"nmax": 5})))
    for row in a + b:
        row.pop("millis")
    assert a == b


def test_tsv_report_shape():
    reports = run_all(tag="weyl", overrides={"nmax": 3})
    text = reports_to_tsv(reports)
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == "id\tstatus\tmillis\twitness\tnote"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split("\t")
        assert len(fields) == 5
        assert fields[1] == "pass"


def test_summary_lines_format():
    reports = run_all(ids=["weyl-A"], overrides={"nmax": 4})
    lines = list(summary_lines(reports))
    assert len(lines) == 1
    assert lines[0].startswith("[PASS] weyl-A (")


def test_igl_observation_note_is_attached():
    # The coefficient-pattern scan reports what it saw beyond the verified
    # table as a note on a passing check.
    r = run_check("remark-igl-table", nmax=4, observe_nmax=8)
    assert r.status == "pass"
    assert r.witness is None
    assert r.note is not None and "rank 8" in r.note
    row, = json.loads(reports_to_json([r]))
    assert "witness" not in row and row["note"] == r.note
    fields = reports_to_tsv([r]).rstrip("\n").split("\n")[1].split("\t")
    assert fields[3:] == ["", r.note]
    assert list(summary_lines([r])) == [f"[PASS] remark-igl-table ({r.millis} ms)"]
