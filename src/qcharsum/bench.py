"""Benchmarks comparing the pure-Python and compiled polynomial kernels.

Both kernel modules are imported directly (the dispatcher in ``_kernel``
only decides which one the library uses), so the comparison runs in one
process on identical inputs.  ``--end-to-end`` additionally times a full
series-identity check in two subprocesses, one with ``QCHARSUM_PURE=1``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

from . import _kernel_py

try:
    from . import _kernel_cy
except ImportError:  # pragma: no cover - depends on the build environment
    _kernel_cy = None


def _random_poly(rng: random.Random, degree: int, bound: int):
    co = [rng.randrange(-bound, bound + 1) for _ in range(degree)]
    co.append(rng.randrange(1, bound + 1))
    return co


def _cyclotomic_product(hs):
    """prod_{h in hs} (q^h - 1) as an integer coefficient list."""
    acc = [1]
    for h in hs:
        acc = _kernel_py.zz_mul(acc, [-1] + [0] * (h - 1) + [1])
    return acc


def _cases():
    rng = random.Random(20260825)
    a = _random_poly(rng, 120, 10 ** 6)
    b = _random_poly(rng, 120, 10 ** 6)
    big_a = _random_poly(rng, 400, 10 ** 9)
    big_b = _random_poly(rng, 400, 10 ** 9)
    f = _random_poly(rng, 18, 40)
    h = _random_poly(rng, 12, 40)
    fh = _kernel_py.zz_mul(f, h)
    # The gcds that still reach the kernel are mostly between group-order
    # factors prod (q^h - 1) that share some cyclotomic factors; gcds with
    # a monomial q^k never get there.
    orders = (_cyclotomic_product(range(1, 9)), _cyclotomic_product(range(2, 11, 2)))
    return [
        ("zz_mul", "degree 120 x 120", "zz_mul", (a, b), 40),
        ("zz_mul", "degree 400 x 400", "zz_mul", (big_a, big_b), 4),
        ("zz_gcd", "prod(q^h-1), h<=8 vs even h<=10", "zz_gcd", orders, 100),
        ("zz_divexact", "degree 30 / degree 12", "zz_divexact", (fh, h), 40),
    ]


def _time_op(module, name: str, args, inner: int, repeats: int = 5) -> float:
    """Best-of-`repeats` wall time in milliseconds for `inner` calls."""
    fn = getattr(module, name)
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn(*args)
        elapsed = (time.perf_counter() - start) * 1000.0
        if best is None or elapsed < best:
            best = elapsed
    return best


def micro_rows():
    """Benchmark rows as dicts; compiled fields are None without the extension."""
    rows = []
    for label, size, fname, args, inner in _cases():
        pure_ms = _time_op(_kernel_py, fname, args, inner)
        row = {"op": label, "size": size, "inner_calls": inner,
               "pure_ms": pure_ms, "compiled_ms": None, "speedup": None}
        if _kernel_cy is not None:
            compiled_ms = _time_op(_kernel_cy, fname, args, inner)
            row["compiled_ms"] = compiled_ms
            row["speedup"] = pure_ms / compiled_ms if compiled_ms > 0 else None
            expected = getattr(_kernel_py, fname)(*args)
            got = getattr(_kernel_cy, fname)(*args)
            if tuple(expected) != tuple(got):
                raise AssertionError(f"kernel disagreement in {fname}")
        rows.append(row)
    return rows


_END_TO_END_SNIPPET = (
    "from qcharsum import verify; "
    "r = verify.run_check('thm-genfnGL', order=7); "
    "raise SystemExit(0 if r.status == 'pass' else 1)"
)


def end_to_end_seconds():
    """(pure_s, default_s) subprocess wall times for one full check."""
    timings = []
    for pure in (True, False):
        env = dict(os.environ)
        env.pop("QCHARSUM_PURE", None)
        if pure:
            env["QCHARSUM_PURE"] = "1"
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _END_TO_END_SNIPPET],
                       check=True, env=env)
        timings.append(time.perf_counter() - start)
    return tuple(timings)


def run(end_to_end: bool = False, out=print) -> int:
    out(f"compiled kernel available: {'yes' if _kernel_cy is not None else 'no'}")
    out("")
    header = (f"{'op':12s} {'case':36s} {'pure (ms)':>10s} "
              f"{'compiled (ms)':>14s} {'speedup':>8s}")
    out(header)
    out("-" * len(header))
    for row in micro_rows():
        pure = f"{row['pure_ms']:.2f}"
        if row["compiled_ms"] is None:
            compiled, speedup = "n/a", "n/a"
        else:
            compiled = f"{row['compiled_ms']:.2f}"
            speedup = f"x{row['speedup']:.1f}"
        out(f"{row['op']:12s} {row['size']:36s} {pure:>10s} "
            f"{compiled:>14s} {speedup:>8s}")
    if end_to_end:
        pure_s, default_s = end_to_end_seconds()
        out("")
        out(f"end-to-end series-identity check (subprocess, includes startup):")
        out(f"  pure kernel:     {pure_s:.2f} s")
        out(f"  default kernel:  {default_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(run(end_to_end="--end-to-end" in sys.argv[1:]))
