"""Acceptance gate: one test per deliverable criterion.

Each test pins its parameters explicitly (so the budget's defaults do not
apply), runs the relevant registered checks at full size, asserts
they pass, and enforces the runtime budget.  One [PASS]/[FAIL] line is
printed per criterion; `pytest -v` additionally reports one line per test.
"""

import sys

from qcharsum.verify import run_check

BRUTE_CASES = [
    ["gl", 2, 2],
    ["gl", 2, 3],
    ["gl", 2, 4],
    ["gl", 2, 5],
    ["gl", 3, 2],
    ["gl", 3, 3],
    ["gl", 4, 2],
    ["u", 2, 2],
    ["u", 2, 3],
    ["u", 3, 2],
]


def _gate(number, title, reports, budget_ms=None):
    bad = [r for r in reports if r.status != "pass"]
    total_ms = sum(r.millis for r in reports)
    ok = not bad and (budget_ms is None or total_ms < budget_ms)
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] criterion {number}: {title} ({total_ms} ms)",
          file=sys.stderr, flush=True)
    for r in bad:
        print(f"        {r.id}: {r.witness}", file=sys.stderr, flush=True)
    assert not bad, f"criterion {number}: " + "; ".join(
        f"{r.id} -> {r.witness}" for r in bad
    )
    if budget_ms is not None:
        assert total_ms < budget_ms, (
            f"criterion {number}: took {total_ms} ms, budget {budget_ms} ms"
        )


def test_criterion_01_gl_even_symbolic_to_rank_8():
    _gate(
        1,
        "general-linear even-characteristic equality, symbolic, n <= 8",
        [run_check("thm-even", nmax=8)],
        budget_ms=60_000,
    )


def test_criterion_02_gl_odd_and_series_identities_to_order_10():
    _gate(
        2,
        "general-linear odd-characteristic equality and both series "
        "identities to order 10",
        [
            run_check("thm-odd", nmax=10),
            run_check("cor-iden", order=10),
            run_check("cor-cort", order=10),
        ],
        budget_ms=60_000,
    )


def test_criterion_03_gl_involution_table_through_rank_7():
    _gate(
        3,
        "even-characteristic involution-count table, n = 1..7",
        [run_check("remark-igl-table", nmax=7, observe_nmax=10)],
    )


def test_criterion_04_unitary_worked_examples_both_routes():
    _gate(
        4,
        "unitary rank-2/rank-3 worked examples via series and closed routes",
        [
            run_check("example-u2-even"),
            run_check("example-u3-even"),
            run_check("example-u2-odd"),
        ],
    )


def test_criterion_05_hall_littlewood_values_and_finite_oracle():
    _gate(
        5,
        "Hall-Littlewood principal values and finite-variable oracle, "
        "shapes up to size 5",
        [
            run_check("example-u2-even"),
            run_check("oracle-hl-finite", sizemax=5),
        ],
        budget_ms=120_000,
    )


def test_criterion_06_symmetric_function_identities_order_8():
    _gate(
        6,
        "two-parameter symmetric-function identities, symbolic, order 8",
        [
            run_check("thm-warid", order=8),
            run_check("cor-warcor", order=8),
        ],
        budget_ms=120_000,
    )


def test_criterion_07_brute_force_group_concordance():
    _gate(
        7,
        "matrix-enumeration involution counts for ten small groups",
        [run_check("oracle-brute-involutions", cases=BRUTE_CASES)],
        budget_ms=300_000,
    )


def test_criterion_08_degree_sum_oracle_concordance():
    _gate(
        8,
        "degree-formula enumeration over census classes equals series coefficients",
        [run_check("oracle-real-sums", gl_nmax=4, u_nmax=3, qs=[2, 3])],
    )


def test_criterion_09_weyl_families_to_rank_12():
    _gate(
        9,
        "Weyl-family degree sums equal involution counts, n <= 12",
        [
            run_check("weyl-A", nmax=12),
            run_check("weyl-B", nmax=12),
            run_check("weyl-D", nmax=12),
        ],
    )


def test_criterion_10_unitary_internal_consistency():
    _gate(
        10,
        "odd-parity expression agreement and epsilon-split relations, n <= 6",
        [
            run_check("thm-unsumodd", nmax=6),
            run_check("cor-epsplit-even", nmax=6),
            run_check("cor-epsplit-odd", nmax=6),
        ],
    )
