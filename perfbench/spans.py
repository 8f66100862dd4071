"""Span tracing of qcharsum's layers, from outside the package.

A `Tracer` replaces each public function or method listed in `LAYERS` by a
wrapper that records one span per call: name, start, end and parent span.
Spans live in compact typed arrays in memory and are written out when the
run ends.  A layer's self time is its span's duration minus the time its
child spans cover.

A function is patched at every module binding that refers to it, because
`from .hl import hl_finite_oracle` gives `verify` its own binding, which a
patch of `hl` alone would miss.  The kernel is the exception: its helpers
call each other inside the kernel module, and only `zz_prem` (reached only
from inside `zz_gcd`) is patched there too.  Other kernel-internal helper
calls are part of the calling kernel op's self time.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from array import array

KERNEL_IMPLS = ("qcharsum._kernel_py", "qcharsum._kernel_cy")

# (span name, module, attribute path).  Several rows may share a span name.
LAYERS = [
    ("kernel.zz_mul", "qcharsum._kernel", "zz_mul"),
    ("kernel.zz_gcd", "qcharsum._kernel", "zz_gcd"),
    ("kernel.zz_divexact", "qcharsum._kernel", "zz_divexact"),
    ("kernel.zz_prem", "qcharsum._kernel", "zz_prem"),
    ("kernel.other", "qcharsum._kernel", "zz_add"),
    ("kernel.other", "qcharsum._kernel", "zz_sub"),
    ("kernel.other", "qcharsum._kernel", "zz_neg"),
    ("kernel.other", "qcharsum._kernel", "zz_mul_scalar"),
    ("kernel.other", "qcharsum._kernel", "zz_content"),
    ("kernel.other", "qcharsum._kernel", "zz_primitive"),
    ("kernel.other", "qcharsum._kernel", "zz_strip"),
    ("exact.RatFunc.add", "qcharsum.exact", "RatFunc.__add__"),
    ("exact.RatFunc.mul", "qcharsum.exact", "RatFunc.__mul__"),
    ("exact.RatFunc.div", "qcharsum.exact", "RatFunc.__truediv__"),
    ("exact.RatFunc.div", "qcharsum.exact", "RatFunc.__rtruediv__"),
    ("exact.QPoly.mul", "qcharsum.exact", "QPoly.__mul__"),
    ("exact.QPoly.gcd", "qcharsum.exact", "QPoly.gcd"),
    ("exact.Series.mul", "qcharsum.exact", "Series.__mul__"),
    ("exact.Series.inv", "qcharsum.exact", "Series.inv"),
    ("exact.SymPoly.mul", "qcharsum.exact", "SymPoly.__mul__"),
    ("hl.hl_finite_oracle", "qcharsum.hl", "hl_finite_oracle"),
    ("hl.hl_principal", "qcharsum.hl", "hl_principal"),
    ("hl.kostka_foulkes", "qcharsum.hl", "kostka_foulkes"),
    ("qseries.named_gf", "qcharsum.qseries", "named_gf"),
    ("qseries.euler_expand", "qcharsum.qseries", "euler_expand"),
    ("qseries.pair_expand", "qcharsum.qseries", "pair_expand"),
    ("qseries.product_of", "qcharsum.qseries", "product_of"),
    ("chars.involution_count", "qcharsum.chars", "involution_count"),
    ("chars.real_degree_sum_gf", "qcharsum.chars", "real_degree_sum_gf"),
    ("polycount.count_selfdual_and_pairs", "qcharsum.polycount",
     "count_selfdual_and_pairs"),
    ("polycount.brute_poly_census", "qcharsum.polycount", "brute_poly_census"),
    ("groups.count_square_roots_of_identity", "qcharsum.groups",
     "count_square_roots_of_identity"),
    ("partitions.enumerate_partitions", "qcharsum.partitions",
     "enumerate_partitions"),
]

# Kernel functions whose binding inside the kernel module is patched as well.
KERNEL_INTERNAL = ("zz_prem",)

# Size thresholds for the operand-size counters (larger operand, in
# coefficients).
MUL_BIG = 128
GCD_BIG = 32


def check_span_name(check_id: str) -> str:
    return f"verify.check.{check_id}"


class Tracer:
    """Records spans around every layer in `LAYERS` and every registry check."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {"kernel.zz_mul.ge128": 0, "kernel.zz_gcd.ge32": 0,
                         "kernel.zz_gcd.trivial": 0, "exact.RatFunc.results": 0,
                         "exact.RatFunc.monomial_den": 0}
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, observe=None):
        """A wrapper of `fn` that records a span named `name` per call.

        `observe(args, result)` runs after the span closes, so its cost is
        not charged to the layer.
        """
        nid = self._nid(name)
        clock = time.perf_counter
        stack = self._stack
        add_name, add_parent = self.name_id.append, self.parent.append
        starts, ends = self.start, self.end
        add_start, add_end = starts.append, ends.append

        def traced(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- observers (ratio counters measured where the work happens) ----------

    def _observe_mul(self, args, result):
        a, b = args
        if max(len(a), len(b)) >= MUL_BIG:
            self.counters["kernel.zz_mul.ge128"] += 1

    def _observe_gcd(self, args, result):
        a, b = args
        if max(len(a), len(b)) >= GCD_BIG:
            self.counters["kernel.zz_gcd.ge32"] += 1
        if len(result) <= 1:
            self.counters["kernel.zz_gcd.trivial"] += 1

    def _observe_ratfunc(self, args, result):
        den = getattr(result, "den", None)
        if den is None:
            return
        self.counters["exact.RatFunc.results"] += 1
        if den.ic.count(0) == len(den.ic) - 1:
            self.counters["exact.RatFunc.monomial_den"] += 1

    def _observer_for(self, name: str):
        if name == "kernel.zz_mul":
            return self._observe_mul
        if name == "kernel.zz_gcd":
            return self._observe_gcd
        # a division returns the result of the multiply it makes, which is
        # observed already
        if name in ("exact.RatFunc.add", "exact.RatFunc.mul"):
            return self._observe_ratfunc
        return None

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch every layer binding and every registry check."""
        for name, module_name, path in LAYERS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                orig = owner.__dict__[attr]
                owners = [owner]
            else:
                orig = getattr(module, attr)
                owners = [m for key, m in sorted(sys.modules.items())
                          if m is not None and key.split(".")[0] == "qcharsum"
                          and (key not in KERNEL_IMPLS or attr in KERNEL_INTERNAL)]
            wrapper = self.wrap(name, orig, self._observer_for(name))
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        self._set(owner, key, wrapper)
        verify = importlib.import_module("qcharsum.verify")
        for check_id, spec in list(verify.REGISTRY.items()):
            traced = self.wrap(check_span_name(check_id), spec.fn)
            self._undo.append((verify.REGISTRY, check_id, spec))
            verify.REGISTRY[check_id] = dataclasses.replace(spec, fn=traced)
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def aggregate(self) -> dict:
        """{span name: (calls, self seconds, inclusive seconds)}."""
        n = len(self.start)
        cover = array("d", bytes(8 * n))
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        starts, ends, parents, nids = self.start, self.end, self.parent, self.name_id
        # a child's index is always larger than its parent's, so walking
        # backwards finishes every child before its parent
        for i in range(n - 1, -1, -1):
            dur = ends[i] - starts[i]
            nid = nids[i]
            calls[nid] += 1
            self_s[nid] += dur - cover[i]
            p = parents[i]
            if p >= 0:
                cover[p] += dur
            else:
                incl_s[nid] += dur
        # inclusive time is summed over root spans only; every check span
        # is a root, and checks are where it is read
        return {name: (calls[i], self_s[i], incl_s[i])
                for i, name in enumerate(self.names)}

    def write(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name_id", "H"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]],
                  "counters": self.counters}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(handle)


def read_spans(path):
    """Inverse of `Tracer.write`: (header, {array name: array})."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        arrays = {}
        for key, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(handle, header["spans"])
            arrays[key] = arr
    return header, arrays
