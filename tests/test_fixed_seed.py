"""Fixed-seed outputs of the trial loop against committed values.

Every LOOP_SPECS experiment and both MOMENT_DRIVERS suites of test_harness run
at their fixed seeds, and so does each Monte Carlo workload of the benchmark
(perfbench's mc_spec, PERFBENCH_TRIALS trials on its N = 4096 steps), and
what they report is compared with fixed_seed.json:
each resolved correction and truncation box exactly, each BoxStats float and
each moment test's observed value, expected value and z to 1e-12 relative
(absolute below 1e-12; NaN matches NaN), each moment test's name exactly.

A change that moves these outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_fixed_seed.py

and says which outputs moved and why.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from stochexpand.harness import moment_suite, run_experiment
from test_harness import LOOP_SPECS, MOMENT_DRIVERS, _wiener_spec
from test_perfbench_names import SAMPLER_SPANS as PERFBENCH_MC, _load

VALUES = Path(__file__).with_name("fixed_seed.json")
BOX_FLOATS = ("mean", "variance", "mse", "mse_halfwidth_99", "residual", "allowance")
PERFBENCH_SEED, PERFBENCH_TRIALS = 11, 16


def _experiment(name) -> dict:
    return _report_values(run_experiment(_wiener_spec(**LOOP_SPECS[name])))


def _perfbench(name) -> dict:
    return _report_values(run_experiment(_load("workloads").mc_spec(name, PERFBENCH_SEED,
                                                                     PERFBENCH_TRIALS)))


def _report_values(report) -> dict:
    return {"correction": report.correction,
            "boxes": [list(s.box) for s in report.stats],
            "stats": [[getattr(s, f) for f in BOX_FLOATS] for s in report.stats]}


def _moments(name) -> list:
    spec = _wiener_spec(driver=MOMENT_DRIVERS[name], trials=1000, n_steps=64)
    return [[t.name, t.observed, t.expected, t.z] for t in moment_suite(spec, j_max=3).tests]


def _outputs() -> dict:
    return {"experiments": {name: _experiment(name) for name in LOOP_SPECS},
            "moment_suites": {name: _moments(name) for name in MOMENT_DRIVERS},
            "perfbench": {name: _perfbench(name) for name in PERFBENCH_MC}}


def _dump(value, indent="") -> str:
    """JSON of value, one line per innermost list."""
    inner = indent + " "
    if isinstance(value, dict):
        items = [f"{inner}{json.dumps(key)}: {_dump(v, inner)}" for key, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, list) and any(isinstance(v, list) for v in value):
        return "[\n" + ",\n".join(inner + _dump(v, inner) for v in value) + f"\n{indent}]"
    return json.dumps(value)


def _committed(section, name):
    return json.loads(VALUES.read_text())[section][name]


def _assert_close(got, want):
    np.testing.assert_allclose(np.array(got, dtype=float), np.array(want, dtype=float),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", LOOP_SPECS)
def test_experiment_matches_its_committed_values(name):
    got, want = _experiment(name), _committed("experiments", name)
    assert (got["correction"], got["boxes"]) == (want["correction"], want["boxes"])
    _assert_close(got["stats"], want["stats"])


@pytest.mark.parametrize("name", PERFBENCH_MC)
def test_benchmark_workload_matches_its_committed_values(name):
    got, want = _perfbench(name), _committed("perfbench", name)
    assert (got["correction"], got["boxes"]) == (want["correction"], want["boxes"])
    _assert_close(got["stats"], want["stats"])


@pytest.mark.parametrize("name", MOMENT_DRIVERS)
def test_moment_suite_matches_its_committed_values(name):
    got, want = _moments(name), _committed("moment_suites", name)
    assert [row[0] for row in got] == [row[0] for row in want]
    _assert_close([row[1:] for row in got], [row[1:] for row in want])


def test_committed_values_cover_every_case():
    doc = json.loads(VALUES.read_text())
    assert (set(doc["experiments"]), set(doc["moment_suites"]), set(doc["perfbench"])) == (
        set(LOOP_SPECS), set(MOMENT_DRIVERS), set(PERFBENCH_MC))


if __name__ == "__main__":
    VALUES.write_text(_dump(_outputs()) + "\n")
