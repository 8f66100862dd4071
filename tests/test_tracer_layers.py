"""The span tracer of perfbench/spans.py still finds every layer it names.

`Tracer.install` raises on a layer that no longer resolves, and a layer that
resolves but is never called records nothing; either breaks `--trace 1`
runs of the benchmark.  The tracer module is loaded by path, so these tests
need nothing from perfbench beyond that one file.
"""

import importlib
import importlib.util
from pathlib import Path

from qcharsum import qseries
from qcharsum.verify import run_check
from test_independence import _cold

_SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves_as_the_tracer_looks_it_up():
    # the lookup of Tracer.install: a dotted path names a class attribute,
    # read from the class's own __dict__; a plain name a module attribute
    for name, module_name, path in _spans().LAYERS:
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            assert callable(getattr(module, owner_path).__dict__.get(attr)), name
        else:
            assert callable(getattr(module, attr, None)), name


def test_tracer_records_the_series_layers_and_restores_them():
    original = qseries.euler_expand
    tracer = _spans().Tracer()
    _cold()
    tracer.install()
    try:
        assert run_check("thm-degreesU", budget="quick").status == "pass"
    finally:
        tracer.uninstall()
        _cold()
    layers = tracer.aggregate()
    for name in ("qseries.euler_expand", "qseries.pair_expand", "qseries.named_gf",
                 "qseries.product_of"):
        assert layers[name][0] > 0, name
    assert qseries.euler_expand is original
