"""The polynomial kernel used by the exact layer.

Each ``zz_*`` name here is :mod:`qcharsum._kernel_py`'s own function object,
re-exported so callers bind ``_kernel as _k`` and a tracer can patch one
module.  ``IMPL_NAME`` is always ``"pure"``; it stays because benchmark
reports record it.
"""

from ._kernel_py import (  # noqa: F401
    zz_add,
    zz_content,
    zz_divexact,
    zz_gcd,
    zz_mul,
    zz_mul_scalar,
    zz_neg,
    zz_prem,
    zz_primitive,
    zz_strip,
    zz_sub,
)

IMPL_NAME = "pure"
