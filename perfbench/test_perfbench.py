"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from stochexpand import kernel  # noqa: E402
from stochexpand.basis import Interval, legendre  # noqa: E402


def one_round(name, seed, workdir, r=0):
    wl = workloads.make(name, seed, str(workdir))
    inputs = wl.prepare(r)
    return wl, wl.collect(inputs, [workloads.call(fn) for fn in wl.calls(inputs)])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_outputs_and_checks_pass_on_two_seeds(name, tmp_path):
    wl, first = one_round(name, 1, tmp_path)
    _, again = one_round(name, 1, tmp_path)
    wl2, other = one_round(name, 2, tmp_path)
    assert all(op.digest for op in first + other)
    assert [op.digest for op in first] == [op.digest for op in again]
    assert not {op.digest for op in first} & {op.digest for op in other}
    for w, ops in ((wl, first), (wl2, other)):
        w.check(ops)
        ops += w.extra_ops(ops)
        assert [err for op in ops for err in op.errors] == []


def run_benchmark(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    proc = run_benchmark(ROOT, "--workload", "poisson_prelimit_mc", "--seed", "3",
                         "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "wiener_mc", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def wiener_short(tmp_path_factory):
    """A short wiener_mc run and the workload that made it."""
    wl = workloads.make("wiener_mc", 7, str(tmp_path_factory.mktemp("wiener")))
    [op] = wl.extra_ops([])
    assert op.errors == []
    return wl, op


def test_checker_fails_a_perturbed_report(wiener_short):
    wl, good = wiener_short
    spec = workloads.mc_spec("wiener_mc", wl.round_seed(0), workloads.SHORT_TRIALS)
    expected = workloads.replay(spec, "pairing_general")
    assert workloads.check_replay(good.output, expected) == []

    shifted = copy.deepcopy(good.output)
    shifted["boxes"][1]["mse"] *= 1.0 + 1e-9
    assert workloads.check_replay(shifted, expected)

    for perturb in (lambda d: d["boxes"][0].update(mean=float("nan")),
                    lambda d: d["boxes"][2].update(mse=d["boxes"][0]["mse"] * 2),
                    lambda d: d.update(correction="prelimit")):
        doc = copy.deepcopy(good.output)
        perturb(doc)
        op = workloads.Op("wiener_mc perturbed", output=doc)
        wl.check([op])
        assert op.errors, "a perturbed report must count as a failed operation"


def test_checker_fails_a_perturbed_tensor(tmp_path):
    wl = workloads.make("tensor_build", 1, str(tmp_path))
    iv = Interval(*wl.interval)
    good = kernel.coeff_tensor(kernel.unit_kernel(2, iv), legendre(iv), (63, 63))
    ops = [workloads.Op("coeffs k2_legendre round 0", output=good,
                        digest=workloads.tensor_digest(good))]
    wl.check(ops)
    assert ops[0].errors == []

    values = good.values.copy()
    values[5, 9] += 1e-8
    bad = dataclasses.replace(good, values=values)
    op = workloads.Op("coeffs k2_legendre round 1", output=bad,
                      digest=workloads.tensor_digest(bad))
    wl.check([op])
    assert len(op.errors) == 2  # off the closed form, and not bitwise the first round's
