"""The benchmark's workloads and their correctness gates.

Each workload runs inside one fresh interpreter, so the package's module
caches start cold, as in a user's `qcharsum verify`.  `run(seed)` does the
timed work and returns the outputs plus one latency per query (a query is
one verdict a user waits for).  `gate(seed, outputs)` runs after the timed
region and returns (verdicts attempted, witnesses of wrong verdicts).
"""

from __future__ import annotations

import contextlib
import io
import random
import time

HL_ORACLE_ID = "oracle-hl-finite"
HL_SIZEMAX = 4
DEEP_RANKS = range(1, 25)
DEEP_FLAVOURS = (("gl", "even"), ("gl", "odd"), ("u", "even"), ("u", "odd"))
DEEP_GF_MAX_RANK = 10
EVEN_QS = (2, 4, 8, 16)
ODD_QS = (3, 5, 7, 9, 11, 13)


def registry_ids():
    from qcharsum import verify
    return [check_id for check_id in verify.REGISTRY if check_id != HL_ORACLE_ID]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# -- registry ----------------------------------------------------------------


def _verify_one(check_id):
    """`qcharsum verify --id ID` in-process: (exit code, printed summary)."""
    from qcharsum import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--id", check_id])
    return code, out.getvalue()


def run_registry(seed):
    outputs, latencies = [], []
    for check_id in registry_ids():
        (code, text), seconds = _timed(_verify_one, check_id)
        outputs.append((check_id, code, text))
        latencies.append(seconds)
    return outputs, latencies


def gate_registry(seed, outputs):
    witnesses = []
    for check_id, code, text in outputs:
        if code != 0 or not text.startswith(f"[PASS] {check_id} "):
            witnesses.append(f"{check_id}: exit {code}: {text.strip()}")
    return len(outputs), witnesses


# -- hl-oracle ---------------------------------------------------------------


def run_hl_oracle(seed):
    from qcharsum import verify
    report, seconds = _timed(verify.run_check, HL_ORACLE_ID, sizemax=HL_SIZEMAX)
    return [report], [seconds]


def gate_hl_oracle(seed, outputs):
    witnesses = [f"{r.id}: {r.status}: {r.witness}" for r in outputs
                 if r.status != "pass"]
    return len(outputs), witnesses


# -- deep-rank ---------------------------------------------------------------


def deep_queries(seed):
    """The 96 (flavour, rank, parity) queries in the seed's order."""
    queries = [(flavour, n, parity) for flavour, parity in DEEP_FLAVOURS
               for n in DEEP_RANKS]
    random.Random(seed).shuffle(queries)
    return queries


def deep_numeric_q(seed):
    """The numeric q of each parity at which the gate evaluates answers."""
    rng = random.Random(seed + 1)
    return {"even": rng.choice(EVEN_QS), "odd": rng.choice(ODD_QS)}


def run_deep_rank(seed):
    from qcharsum import chars
    outputs, latencies = [], []
    for flavour, n, parity in deep_queries(seed):
        answer, seconds = _timed(chars.involution_count, flavour, n, None, parity)
        outputs.append(((flavour, n, parity), answer))
        latencies.append(seconds)
    return outputs, latencies


def gate_deep_rank(seed, outputs):
    """Each symbolic answer must match the numeric closed form at the seed's
    q, and for ranks up to DEEP_GF_MAX_RANK the generating-function route."""
    from qcharsum import chars
    qs = deep_numeric_q(seed)
    witnesses = []
    for (flavour, n, parity), answer in outputs:
        tag = f"{flavour} n={n} {parity}"
        q = qs[parity]
        try:
            got = answer.eval(q)
        except (AttributeError, ArithmeticError) as exc:
            witnesses.append(f"{tag}: cannot evaluate {answer!r} at q={q}: {exc}")
            continue
        expected = chars.involution_count(flavour, n, q)
        if got != expected:
            witnesses.append(f"{tag}: answer at q={q} is {got}, numeric closed "
                             f"form gives {expected}")
            continue
        if n <= DEEP_GF_MAX_RANK:
            gf = chars.involution_count_gf(flavour, n, None, parity)
            if answer != gf:
                witnesses.append(f"{tag}: answer {answer} != generating-function "
                                 f"route {gf}")
    return len(outputs), witnesses


WORKLOADS = {
    "registry": (run_registry, gate_registry),
    "hl-oracle": (run_hl_oracle, gate_hl_oracle),
    "deep-rank": (run_deep_rank, gate_deep_rank),
}


def parameters(name, seed):
    """The workload's inputs, for the run-environment header."""
    if name == "registry":
        from qcharsum import verify
        return {"checks": [{"id": i, "params": verify.REGISTRY[i].params}
                           for i in registry_ids()],
                "budget": "full", "entry": "qcharsum verify --id ID"}
    if name == "hl-oracle":
        return {"check": HL_ORACLE_ID, "params": {"sizemax": HL_SIZEMAX}}
    return {"queries": len(deep_queries(seed)),
            "ranks": [DEEP_RANKS.start, DEEP_RANKS.stop - 1],
            "flavour_parity": [list(fp) for fp in DEEP_FLAVOURS],
            "order": [f"{f}:{n}:{p}" for f, n, p in deep_queries(seed)[:8]] + ["..."],
            "gate_q": deep_numeric_q(seed), "gf_gate_max_rank": DEEP_GF_MAX_RANK}
