"""Every compiler's output stays identical to the committed golden traces.

``scripts/compile_golden.py --write`` regenerates the fixture; only a change
that means to alter compiler output may do so.
"""

from __future__ import annotations

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _golden_module():
    path = os.path.join(ROOT, "scripts", "compile_golden.py")
    spec = importlib.util.spec_from_file_location("compile_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compiles_match_the_golden_traces():
    golden = _golden_module()
    with open(golden.FIXTURE, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    actual = golden.generate()
    assert golden.compare(expected, actual) == []
