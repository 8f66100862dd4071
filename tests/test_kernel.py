"""Pure-Python vs compiled kernel agreement, and gcd against sympy.

When the extension is not built, the agreement tests compile the committed
``_kernel_cy.c`` into a temporary directory and test that build.
"""

import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import qcharsum
from qcharsum import _kernel_py

OPS_BINARY = ("zz_add", "zz_sub", "zz_mul", "zz_gcd")
OPS_UNARY = ("zz_strip", "zz_neg", "zz_content", "zz_primitive")


def _rand_poly(rng, max_deg=40, bound=10 ** 6, allow_zero=True):
    degree = rng.randrange(-1 if allow_zero else 0, max_deg + 1)
    if degree < 0:
        return []
    co = [rng.randrange(-bound, bound + 1) for _ in range(degree)]
    co.append(rng.choice([i for i in range(-bound, bound + 1) if i]))
    return co


@pytest.fixture(scope="module")
def kernel_cy(tmp_path_factory):
    """The built extension, or else one compiled from the committed C source."""
    try:
        from qcharsum import _kernel_cy
    except ImportError:
        pass
    else:
        yield _kernel_cy
        return
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    include = sysconfig.get_paths()["include"]
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler to build the compiled kernel")
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no Python.h to build the compiled kernel")
    source = Path(qcharsum.__file__).with_name("_kernel_cy.c")
    target = tmp_path_factory.mktemp("kernel_cy") / (
        "_kernel_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([*cc, "-O0", "-shared", "-fPIC", "-I", include,
                    str(source), "-o", str(target)],
                   check=True, capture_output=True, timeout=300)
    name = "qcharsum._kernel_cy"
    spec = importlib.util.spec_from_file_location(name, target)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_kernels_agree_on_random_inputs(kernel_cy):
    rng = random.Random(7)
    for _ in range(60):
        a = _rand_poly(rng, max_deg=18, bound=10 ** 4)
        b = _rand_poly(rng, max_deg=18, bound=10 ** 4)
        for op in OPS_UNARY:
            left = getattr(_kernel_py, op)(a)
            right = getattr(kernel_cy, op)(a)
            if op == "zz_primitive":
                left, right = (left[0], tuple(left[1])), (right[0], tuple(right[1]))
            elif op not in ("zz_content",):
                left, right = tuple(left), tuple(right)
            assert left == right, op
        for op in OPS_BINARY:
            if op == "zz_gcd" and (not a or not b):
                continue
            assert tuple(getattr(_kernel_py, op)(a, b)) == \
                tuple(getattr(kernel_cy, op)(a, b)), op


def test_kernels_agree_on_division_and_prem(kernel_cy):
    rng = random.Random(11)
    for _ in range(60):
        a = _rand_poly(rng, max_deg=14, bound=10 ** 4, allow_zero=False)
        b = _rand_poly(rng, max_deg=7, bound=10 ** 4, allow_zero=False)
        product = _kernel_py.zz_mul(a, b)
        assert tuple(_kernel_py.zz_divexact(product, b)) == \
            tuple(kernel_cy.zz_divexact(product, b))
        if len(a) >= len(b):
            assert tuple(_kernel_py.zz_prem(a, b)) == \
                tuple(kernel_cy.zz_prem(a, b))


def test_gcd_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(13)
    for _ in range(25):
        f = _rand_poly(rng, max_deg=8, bound=30, allow_zero=False)
        g = _rand_poly(rng, max_deg=8, bound=30, allow_zero=False)
        h = _rand_poly(rng, max_deg=5, bound=30, allow_zero=False)
        a = _kernel_py.zz_mul(f, h)
        b = _kernel_py.zz_mul(g, h)
        got = _kernel_py.zz_gcd(a, b)
        pa = sympy.Poly(list(reversed(a)), x)
        pb = sympy.Poly(list(reversed(b)), x)
        _, expected = sympy.gcd(pa, pb).primitive()
        expected_co = tuple(int(c) for c in reversed(expected.all_coeffs()))
        # both are primitive; fix the sign convention before comparing
        if expected_co[-1] < 0:
            expected_co = tuple(-c for c in expected_co)
        normalized = tuple(got) if got[-1] > 0 else tuple(-c for c in got)
        assert normalized == expected_co


def test_gcd_divides_both_inputs():
    rng = random.Random(17)
    for _ in range(40):
        a = _rand_poly(rng, max_deg=10, bound=100, allow_zero=False)
        b = _rand_poly(rng, max_deg=10, bound=100, allow_zero=False)
        g = _kernel_py.zz_gcd(a, b)
        for poly in (a, b):
            _, prim = _kernel_py.zz_primitive(poly)
            quotient = _kernel_py.zz_divexact(prim, g)
            assert tuple(_kernel_py.zz_mul(quotient, g)) == tuple(prim)


def test_dispatcher_exports_all_kernel_functions():
    from qcharsum import _kernel
    for name in OPS_BINARY + OPS_UNARY + ("zz_mul_scalar", "zz_divexact",
                                          "zz_prem"):
        assert callable(getattr(_kernel, name))
