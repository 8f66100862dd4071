"""Kernel dispatch: compiled extension when built, pure Python otherwise.

Each ``zz_*`` name here is the chosen implementation's own function object.
``IMPL_NAME`` says which one is active (``"compiled"`` or ``"pure"``).
"""

try:
    from . import _kernel_cy as impl  # type: ignore[attr-defined]

    IMPL_NAME = "compiled"
except ImportError:
    from . import _kernel_py as impl

    IMPL_NAME = "pure"

zz_strip = impl.zz_strip
zz_add = impl.zz_add
zz_sub = impl.zz_sub
zz_neg = impl.zz_neg
zz_mul = impl.zz_mul
zz_mul_scalar = impl.zz_mul_scalar
zz_content = impl.zz_content
zz_primitive = impl.zz_primitive
zz_divexact = impl.zz_divexact
zz_prem = impl.zz_prem
zz_gcd = impl.zz_gcd
