"""One workload repetition in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE SPANS_PATH

The timed region is the workload alone: the import before it is measured
separately as set-up time, and the correctness gate runs after it.  With
TRACE=1 every layer is wrapped before the timed region, the wrappers are
removed before the gate, and the spans are written to SPANS_PATH.
"""

from __future__ import annotations

import json
import os
import sys
import time

import qcharsum
import qcharsum.cli  # noqa: F401  (the entry point is imported at start-up)

from workloads import WORKLOADS


def peak_rss_kib() -> int:
    """Peak resident set of this process image.  VmHWM starts afresh at exec,
    whereas ru_maxrss would also count the forking parent's resident set."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv):
    workload, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    run, gate = WORKLOADS[workload]
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer().install()
    start = time.perf_counter()
    outputs, latencies = run(seed)
    wall_s = time.perf_counter() - start
    record = {"impl": qcharsum.IMPL_NAME, "package": os.path.dirname(qcharsum.__file__),
              "wall_s": wall_s, "peak_rss_mb": peak_rss_kib() / 1024.0,
              "latencies_s": latencies}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.aggregate()
        record["counters"] = tracer.counters
        tracer.write(spans_path)
    attempted, witnesses = gate(seed, outputs)
    record.update(attempted=attempted, witnesses=witnesses)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
