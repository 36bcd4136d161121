"""The library names that perfbench/spans.py wraps by name still resolve.

The tracer looks up each (module, attribute) at install time, so a renamed
or deleted function would only surface in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    named = [entry[:2] for entry in spans.SPANNED] + list(spans.SITE_READS)
    for mod_name, dotted in named:
        owner = importlib.import_module(mod_name)
        for part in dotted.split("."):
            assert hasattr(owner, part), (mod_name, dotted)
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, dotted)
    wrapped = {dotted.split(".")[-1] for _, dotted, _ in spans.SPANNED}
    for counted in spans.CALLS.values():
        assert set(counted) <= wrapped, counted
    assert importlib.import_module("cmvkit.cli.suites").SUITES
