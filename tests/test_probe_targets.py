"""Every layer boundary the benchmark probe wraps must exist in the library.

perfbench/probe.py looks each (module, attribute) up with getattr at
install time, so a renamed or deleted function crashes every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe.SPAN_TARGETS


@pytest.mark.parametrize("module,attr,span", _span_targets())
def test_span_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span
