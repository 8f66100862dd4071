"""Tests of the benchmark itself: gates, tracer and metric names.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from qcharsum import _kernel, _kernel_py, chars, hl, qseries, verify  # noqa: E402
from qcharsum.exact import RatFunc  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _deep_outputs(seed, max_rank=4):
    return [((f, n, p), chars.involution_count(f, n, None, p))
            for f, n, p in workloads.deep_queries(seed) if n <= max_rank]


def test_deep_rank_gate_passes_true_answers():
    outputs = _deep_outputs(7)
    attempted, witnesses = workloads.gate_deep_rank(7, outputs)
    assert attempted == len(outputs) == 16
    assert witnesses == []


def test_deep_rank_gate_counts_a_wrong_answer():
    outputs = _deep_outputs(7)
    (flavour, n, parity), answer = outputs[3]
    outputs[3] = ((flavour, n, parity), answer + 1)
    attempted, witnesses = workloads.gate_deep_rank(7, outputs)
    assert attempted == 16
    assert len(witnesses) == 1
    assert f"{flavour} n={n} {parity}" in witnesses[0]


def test_deep_rank_gate_catches_an_answer_right_only_at_the_numeric_q():
    seed = 7
    outputs = _deep_outputs(seed)
    (flavour, n, parity), answer = outputs[5]
    q0 = workloads.deep_numeric_q(seed)[parity]
    outputs[5] = ((flavour, n, parity), answer + (RatFunc.x() - q0))
    _, witnesses = workloads.gate_deep_rank(seed, outputs)
    assert len(witnesses) == 1
    assert "generating-function route" in witnesses[0]


def test_registry_and_hl_gates_count_failures():
    ok = ("weyl-A", 0, "[PASS] weyl-A (3 ms)\n")
    bad = ("weyl-B", 1, "[FAIL] weyl-B (3 ms)  n=2: degree sum 5 != involutions 6\n")
    attempted, witnesses = workloads.gate_registry(0, [ok, bad])
    assert attempted == 2 and len(witnesses) == 1 and "weyl-B" in witnesses[0]
    report = verify.CheckReport(id="oracle-hl-finite", status="fail", params={},
                                witness="lam=(1) m=2", millis=1)
    assert workloads.gate_hl_oracle(0, [report]) == (1, ["oracle-hl-finite: fail: lam=(1) m=2"])


def test_deep_queries_follow_the_seed():
    first = workloads.deep_queries(3)
    assert first == workloads.deep_queries(3)
    assert first != workloads.deep_queries(4)
    assert sorted(first) == sorted(workloads.deep_queries(4))
    assert len(first) == 96


def test_registry_workload_is_every_check_but_the_oracle():
    ids = workloads.registry_ids()
    assert len(ids) == 29 and workloads.HL_ORACLE_ID not in ids
    assert ids == [i for i in verify.REGISTRY if i in ids]


def test_self_time_subtracts_the_time_children_cover():
    tracer = spans.Tracer()
    outer, inner = tracer._nid("outer"), tracer._nid("inner")
    # outer [0, 10] > inner [2, 5] > inner [3, 4];  outer > inner [6, 7]
    for nid, parent, start, end in ((outer, -1, 0, 10), (inner, 0, 2, 5),
                                    (inner, 1, 3, 4), (inner, 0, 6, 7)):
        tracer.name_id.append(nid)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    result = tracer.aggregate()
    assert result["outer"] == (1, 6.0, 10.0)
    assert result["inner"][:2] == (3, 4.0)


def test_tracer_patches_every_binding_and_restores_them():
    originals = {
        "hl": hl.hl_finite_oracle, "verify": verify.hl_finite_oracle,
        "named_gf": qseries.named_gf, "chars.named_gf": chars.named_gf,
        "prem": _kernel.zz_prem, "strip": _kernel_py.zz_strip,
        "radd": RatFunc.__radd__, "weyl": verify.REGISTRY["weyl-A"],
    }
    tracer = spans.Tracer().install()
    try:
        assert verify.hl_finite_oracle is hl.hl_finite_oracle is not originals["hl"]
        assert chars.named_gf is qseries.named_gf is not originals["named_gf"]
        assert _kernel_py.zz_prem is _kernel.zz_prem is not originals["prem"]
        assert _kernel_py.zz_strip is originals["strip"]
        assert RatFunc.__radd__ is RatFunc.__add__
        assert RatFunc.__dict__["__radd__"] is not originals["radd"]
        assert verify.run_check("weyl-A", nmax=4).status == "pass"
        assert chars.involution_count("u", 3, None, "odd") is not None
    finally:
        tracer.uninstall()
    assert hl.hl_finite_oracle is originals["hl"]
    assert verify.hl_finite_oracle is originals["verify"]
    assert chars.named_gf is originals["chars.named_gf"]
    assert _kernel.zz_prem is _kernel_py.zz_prem is originals["prem"]
    assert RatFunc.__dict__["__radd__"] is originals["radd"]
    assert verify.REGISTRY["weyl-A"] is originals["weyl"]
    layers = tracer.aggregate()
    assert layers["verify.check.weyl-A"][0] == 1
    assert layers["chars.involution_count"][0] == 1
    assert layers["kernel.zz_prem"][0] > 0
    assert layers["exact.RatFunc.add"][0] > 0


def test_spans_round_trip_through_the_written_file(tmp_path):
    tracer = spans.Tracer().install()
    try:
        chars.involution_count("gl", 4, None, "even")
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.bin"
    tracer.write(path)
    header, arrays = spans.read_spans(path)
    assert header["names"] == tracer.names
    assert header["spans"] == len(tracer.start) > 0
    assert arrays["parent"] == tracer.parent and arrays["end"] == tracer.end


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    rep = {"wall_s": 1.5, "peak_rss_mb": 18.0, "latencies_s": [0.01, 0.02, 0.3]}
    metrics = run.end_to_end_metrics([rep, dict(rep, wall_s=1.7)], [0.2, 0.3, 0.25])
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["wall_s"]["value"] == 1.6
    assert metrics["query_ms_p50"]["value"] == 20.0
    assert metrics["query_ms_p90"]["value"] == 300.0


def test_every_per_layer_metric_is_emitted_with_its_unit():
    tracer = spans.Tracer().install()
    try:
        verify.run_check("weyl-A", nmax=3)
        chars.involution_count("gl", 5, None, "odd")
    finally:
        tracer.uninstall()
    traced = {"layers": tracer.aggregate(), "counters": tracer.counters, "wall_s": 0.5}
    metrics = run.layer_metrics(traced, 0.4, list(verify.REGISTRY))
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("per_layer")
    assert metrics["verify.check.weyl-A.s"]["value"] > 0
    assert metrics["chars.involution_count.calls"]["value"] == 1
    assert 0 < metrics["exact.RatFunc.monomial_den_share"]["value"] <= 1


def test_benchmark_declares_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deep-rank",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_setup_time_spans_spawn_to_end_of_import():
    times = run.measure_setup(run.child_env(), 2, time.monotonic() + 60)
    assert len(times) == 2 and all(0 < t < 30 for t in times)
