"""Every function the benchmark traces by name must exist in the engine.

`perfbench/layers.py` wraps each `(module, attribute path)` of its TRACED
table on an imported `superpi` and raises AttributeError on a missing one,
which breaks every `perfbench/run.py --trace 1` run.  The table is read
from that file, so a rename in the engine fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


def test_every_traced_name_resolves():
    traced = traced_names()
    assert traced
    for module_name, path in traced:
        owner = importlib.import_module(f"superpi.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"superpi.{module_name}.{path} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), f"superpi.{module_name}.{path} is not callable"
