"""The benchmark in perfbench/ still runs against the library.

The tracer looks up each (module, attribute) of perfbench/spans.py at install
time, and the workloads call the public API with the signatures they were
written for, so a renamed function or a changed signature would otherwise
only surface in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cmvkit import coefficients

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """perfbench/<name>.py as a module, registered so its dataclasses resolve."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load("spans")
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


WORKLOADS = load("workloads")


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_one_tiny_cycle_of_each_workload_passes_its_checks(name):
    workload = WORKLOADS.build(name, 3, "tiny")
    verdicts = [op.check(op.call()) for op in workload.cycle]
    assert verdicts and all(v.passed and v.in_claim_ok for v in verdicts), name


@pytest.mark.parametrize("name", ["spectral-grid", "green-sweep"])
def test_a_workload_roots_its_gamma_once_per_process(name, monkeypatch):
    """Every op of these workloads takes one array gamma: the first op roots it, and
    no later op or cycle roots it again (coefficients.as_boundary's cache)."""
    coefficients._boundary.cache_clear()
    real, roots = coefficients.principal_unitary_sqrt, []

    def counting(gamma):
        roots.append(1)
        return real(gamma)

    monkeypatch.setattr(coefficients, "principal_unitary_sqrt", counting)
    workload = WORKLOADS.build(name, 3, "tiny")
    for _ in range(2):
        for op in workload.cycle:
            op.check(op.call())
    assert len(workload.cycle) > 1 and len(roots) == 1, name
