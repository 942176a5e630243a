import argparse
import importlib
import math
import pathlib
import pkgutil
import re

import pytest

import stochexpand
from stochexpand import cli, harness

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_example_runs(capsys):
    block = re.search(r"Quick example:\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README.md has no Quick example block"
    exec(compile(block.group(1), "README.md quick example", "exec"), {})
    sample, oracle = map(float, capsys.readouterr().out.split())
    # one Wiener path: the p = 7 series against the N = 4096 left-point sum
    assert math.isfinite(sample) and abs(sample - oracle) < 1.0


def test_readme_states_the_trials_per_chunk(monkeypatch, tmp_path):
    text = README.read_text()
    example = re.search(r"Example `converge.json`:\n\n```json\n(.*?)```", text, re.S)
    stated = re.search(r"`harness\.CHUNK_BYTES` \((\d+) MiB: for the k = 2, m = 2, N = 4096 "
                       r"`converge\.json` example below, (\d+) trials without `richardson` and "
                       r"(\d+) with it\)", " ".join(text.split()))
    assert example and stated, "README.md no longer states the trials per chunk"

    class Built(Exception):
        pass

    def built(spec):
        raise Built(spec)

    monkeypatch.setattr(cli, "run_experiment", built)
    config = tmp_path / "converge.json"
    config.write_text(example.group(1))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(Built) as exc:
        cli.cmd_converge(argparse.Namespace(config=str(config)))
    spec = exc.value.args[0]
    n, p_max = spec.n_steps, max(map(max, spec.boxes))
    assert (spec.kernel.multiplicity, spec.driver.m, n, spec.richardson) == (2, 2, 4096, True)
    mib, plain, richardson = map(int, stated.groups())
    assert harness.CHUNK_BYTES == mib * 2**20
    assert harness._chunk_trials(spec, n, p_max)[0] == plain
    assert harness._chunk_trials(spec, n, p_max, (n // 2,))[0] == richardson


# `module.NAME` = value or `module.NAME` (value): a README statement of a constant
VALUE = r"\d+(?:\.\d+)?(?:\^\d+)?(?: [KMG]iB)?"
STATED = re.compile(rf"`(\w+)\.([A-Z][A-Z_\d]*)` (?:= ({VALUE})|\(({VALUE})[):])")
UNITS = {"KiB": 2**10, "MiB": 2**20, "GiB": 2**30}


def _stated_value(text: str) -> float:
    number, _, unit = text.partition(" ")
    base, _, power = number.partition("^")
    return float(base) ** int(power or 1) * UNITS.get(unit, 1)


def test_readme_states_the_constants_of_the_code():
    stated = [(m.group(1), m.group(2), m.group(3) or m.group(4))
              for m in STATED.finditer(" ".join(README.read_text().split()))]
    assert {f"{module}.{name}" for module, name, _ in stated} >= {
        "harness.RATIO_BOUND", "drivers.RHO_BLOCK", "harness.SEED_STREAMS",
        "harness.MEMORY_BUDGET", "basis.WALSH_BITS", "harness.CHUNK_BYTES"}
    for module, name, value in stated:
        code = getattr(importlib.import_module(f"stochexpand.{module}"), name)
        assert code == _stated_value(value), f"README states {module}.{name} = {value}"


def test_readme_module_names_exist():
    modules = {m.name for m in pkgutil.iter_modules(stochexpand.__path__)}
    named = {m.groups() for m in re.finditer(r"`(\w+)\.(\w+)", README.read_text())
             if m.group(1) in modules}
    assert named, "README.md names no module attribute"
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(importlib.import_module(f"stochexpand.{module}"), name)]
    assert not missing, f"README.md names attributes that do not exist: {missing}"
