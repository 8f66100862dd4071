"""The two sides of every check share no code beyond what they declare.

Each side of a check runs alone at the quick budget with cold memos (every
package lru_cache cleared) under sys.setprofile, which collects the qcharsum
functions it calls.  A function that both sides
reach must be on the allowlist or in SHARED, the committed table of shared
ingredients, next to the mutation probe that shows a corruption of it is
still caught.  The allowlist holds the exact layer, the kernel, partitions,
the validators of q, rank, parity and flavor, and verify's own plumbing,
which only routes rows (the registry's lambdas and the factories' row
generators); dataclass-generated methods are not package code.  A row of
SHARED whose ingredients the sides no longer share is stale and fails too.
"""

import dataclasses
import re
import sys
from pathlib import Path

import pytest

import qcharsum
from qcharsum import chars
from qcharsum.verify import REGISTRY, _params_for

_PACKAGE = Path(qcharsum.__file__).parent

# partitions._gauss_row is read by both sides of thm-warid (the weights and
# the series products); test_verify.py::
# test_mutation_in_the_gaussian_rows_fails_the_warnaar_summation shows a
# corrupt row is still caught.  Both sides of thm-genfnGL and thm-degreesU
# read it too (the class product and the series products);
# test_mutation_in_the_gaussian_rows_fails_the_class_product_checks shows a
# corrupt row is still caught there
ALLOWED_MODULES = {"exact", "_kernel", "_kernel_py", "partitions"}

ALLOWED = {
    # validators, and the evaluation of a symbolic value at integer q
    "chars._check_rank", "chars._qval", "chars._parity_name", "polycount._finish",
    "polycount._as_scalar", "polycount.parity_e", "polycount._check_flavor",
    "polycount.to_int",
    # verify's row plumbing (lambdas in verify are allowed as such)
    "verify._coefficients", "verify._hl_rows", "verify._census_side.<locals>.side",
    "verify._group_side.<locals>.side", "verify._prodlem_sides.<locals>.side.<locals>.rows",
}

# both odd-characteristic expressions read F_lam through the same route
_F_ROUTE = ("verify._unsumodd_form", "chars._unsumodd_sum", "chars._hl_at_minus_w",
            "chars._from_w", "chars._rs_at_wpow", "chars._signed",
            "hl.hl_principal_poly", "hl._hl_principal_poly", "hl._hl_rows",
            "hl._strips_below", "hl._strip_weight", "hl._times_one_minus_zpow",
            "hl._unpack", "hl._as_partition")
_F_PROBE = "test_verify.py::test_mutation_in_the_unitary_sums_f_lam_is_detected"

# the eps halves and the real degree sum both read the real series _u_real_gf
# through the integer series products
_NAMED_GF = ("chars._named_gf_values", "qseries.named_gf_value", "qseries._named",
             "qseries._u_real_gf", "qseries.euler_expand", "qseries.euler_expand.<locals>.coefficient",
             "qseries.pair_expand", "qseries.pair_expand.<locals>.coefficient",
             "qseries.product_of", "qseries.EulerSeries.__init__",
             "qseries.EulerSeries.__mul__", "qseries.EulerSeries.__mul__.<locals>.product",
             "qseries.EulerSeries.coefficient", "qseries._add_product", "qseries._in_q",
             "qseries._one_minus_powers", "qseries._over_one_minus", "qseries._shifted")
_NAMED_GF_PROBE = "test_verify.py::test_eps_split_sum_rows_miss_a_corrupt_real_series"

# (check id, ingredients both sides reach, the probe that shows a corruption
# of them is still caught)
SHARED = [
    ("cor-epsplit-even", _NAMED_GF, _NAMED_GF_PROBE),
    ("cor-epsplit-odd", _NAMED_GF, _NAMED_GF_PROBE),
    ("thm-unsumodd", _F_ROUTE, _F_PROBE),
    ("example-u2-odd", _F_ROUTE, _F_PROBE),
    ("oracle-hl-finite", ("hl._as_partition",),
     "test_hl.py::test_finite_oracle_matches_the_ratfunc_symmetrization"),
    # both routes evaluate at q = 2^s and read back with the same helpers
    ("oracle-hl-finite", ("hl._pack", "hl._unpack"),
     "test_verify.py::test_mutation_in_the_read_back_fails_the_hl_oracle"),
]


def _cold():
    for name, module in list(sys.modules.items()):
        if name.startswith("qcharsum."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def _reached(side, params) -> set:
    """The package functions one side calls, as "module.qualname"; a
    comprehension counts as part of the function it sits in."""
    _cold()
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        for _ in side(**params):
            pass
    finally:
        sys.setprofile(None)
    names = set()
    for code in codes:
        path = Path(code.co_filename)
        if path.parent == _PACKAGE:
            qualname = getattr(code, "co_qualname", code.co_name)
            qualname = re.sub(r"(\.<locals>\.<(genexpr|listcomp|dictcomp|setcomp)>)+$",
                              "", qualname)
            names.add(f"{path.stem}.{qualname}")
    return names


def _shared_outside_allowlist(spec) -> set:
    lhs, rhs = spec.sides
    params = _params_for(spec, "quick", {})
    both = _reached(lhs, params) & _reached(rhs, params)
    return {name for name in both
            if name.split(".")[0] not in ALLOWED_MODULES and name not in ALLOWED
            and not (name.startswith("verify.") and "<lambda>" in name)}


@pytest.mark.parametrize("check_id", list(REGISTRY))
def test_sides_share_only_declared_ingredients(check_id):
    shared = _shared_outside_allowlist(REGISTRY[check_id])
    rows = [set(names) for cid, names, _ in SHARED if cid == check_id]
    declared = set().union(*rows)
    assert shared <= declared, f"undeclared: {sorted(shared - declared)}"
    for names in rows:
        assert names <= shared, f"stale row: {sorted(names - shared)}"


def test_shared_rows_name_registered_checks_and_existing_probes():
    here = Path(__file__).parent
    for check_id, _, probe in SHARED:
        assert check_id in REGISTRY, check_id
        filename, name = probe.split("::")
        assert f"\ndef {name}(" in (here / filename).read_text(), probe


def test_the_sweep_names_an_ingredient_both_sides_reach():
    # thm-even's lhs pointed at the series route its rhs takes: the sweep
    # must name the generating-function reader as undeclared sharing.
    spec = REGISTRY["thm-even"]
    lhs = lambda nmax: ((f"n={n}", chars.real_degree_sum_gf("gl", n, None, "even"))
                        for n in range(1, nmax + 1))
    shared = _shared_outside_allowlist(dataclasses.replace(spec, sides=(lhs, spec.sides[1])))
    assert {"chars.real_degree_sum_gf", "qseries.named_gf_value"} <= shared
