"""The names that the benchmark in perfbench/ wraps and calls still exist.

perfbench's tracer swaps module attributes such as ``harness.sample_wiener``
for timing wrappers, and its workloads replay a short run through the public
samplers and basis-variable builders.  A renamed or bypassed entry point
would otherwise show up only in ``python3 -m pytest perfbench`` or in a
benchmark run.  The two perfbench modules are loaded by path; no perfbench
file is changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from stochexpand import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the span of the sampler each Monte Carlo workload must call once per trial
SAMPLER_SPANS = {
    "wiener_mc": "drivers.sample_wiener",
    "martingale_mc": "drivers.sample_gaussian_martingale",
    "poisson_prelimit_mc": "drivers.sample_poisson",
}


def _load(name):
    """perfbench/<name>.py as the module `name`, registered in sys.modules."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_every_monte_carlo_workload_is_covered():
    assert set(SAMPLER_SPANS) == set(_load("workloads").MC_WORKLOADS)


@pytest.mark.parametrize("name", sorted(SAMPLER_SPANS))
def test_traced_samplers_record_calls_and_replay_agrees(name, tmp_path, monkeypatch):
    tracer, workloads = _load("tracer"), _load("workloads")
    monkeypatch.setattr(harness, "_worker_count", lambda n_chunks: 1)  # spans of one process
    spec = workloads.mc_spec(name, 1, 2)
    with tracer.Tracer().installed() as tr:
        report = harness.run_experiment(spec)
        replayed = workloads.replay(spec, workloads.MC_WORKLOADS[name].correction)
    calls = {}
    for span in tr.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    assert calls.get(SAMPLER_SPANS[name]) == spec.trials  # one draw per trial
    assert calls.get("oracle.iterated_sum") and calls.get("expansions.expand")
    harness.report_to_json(report, tmp_path / "report.json")
    doc = json.loads((tmp_path / "report.json").read_text())
    assert workloads.check_replay(doc, replayed) == []
