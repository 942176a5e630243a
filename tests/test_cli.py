import contextlib
import copy
import functools
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from stochexpand import basis, cli, drivers, harness, quadrature
from stochexpand.basis import Interval, OrthonormalSystem, bessel_weighted
from stochexpand.kernel import coeff, coeff_tensor, unit_kernel
from stochexpand.errors import ConfigError, SizeError


def run(argv):
    return cli.main(argv)


def coeffs_config(tmp_path, **overrides):
    doc = {
        "interval": [0.0, 1.0],
        "kernel": {"factors": [{"name": "const", "param": 1.0},
                               {"name": "const", "param": 1.0}]},
        "system": {"kind": "legendre"},
        "box": [5, 5],
        "out": str(tmp_path / "coeffs"),
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def converge_config(tmp_path, **overrides):
    doc = {
        "interval": [0.0, 1.0],
        "kernel": {"factors": [{"name": "const"}, {"name": "const"}]},
        "system": {"kind": "legendre"},
        "driver": {"kind": "wiener", "m": 2},
        "combo": [1, 2],
        "boxes": [[1, 1]],
        "n_steps": 64,
        "trials": 10,
        "seed": 7,
        "out": str(tmp_path / "conv"),
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_basis_command_passes(capsys):
    assert run(["basis", "--system", "legendre", "--interval", "0", "1",
                "--count", "8"]) == 0
    out = capsys.readouterr().out
    assert "max_gram_deviation" in out


def test_basis_writes_the_gram_matrix(tmp_path, capsys):
    path = tmp_path / "gram.csv"
    assert run(["basis", "--system", "legendre", "--count", "5", "--out", str(path)]) == 0
    np.testing.assert_array_equal(np.loadtxt(path, delimiter=","),
                                  basis.gram_matrix(basis.legendre(Interval(0.0, 1.0)), 5))


def test_basis_bessel():
    assert run(["basis", "--system", "bessel_weighted", "--count", "5"]) == 0


def test_basis_unknown_system():
    assert run(["basis", "--system", "nosuch"]) == 2


@pytest.mark.parametrize("system, count, code", [
    ("walsh", 2000, 2),  # a Walsh system of 10 bits has 1024 members
    ("legendre", 10**5, 3),  # the Gram matrix alone would hold 10**10 entries
    ("haar", 2048, 3),  # 2048 members on the first grid's 65536 nodes
], ids=["walsh_count_over_bits", "huge_gram_matrix", "huge_basis_table"])
def test_basis_rejects_counts_cleanly(monkeypatch, capsys, system, count, code):
    def refuse(self, j_max, x):
        raise AssertionError("basis table built before the count was checked")

    monkeypatch.setattr(OrthonormalSystem, "eval_table", refuse)
    assert run(["basis", "--system", system, "--count", str(count)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_basis_rejects_a_huge_bessel_order_at_once(monkeypatch, capsys):
    # the root scan steps by 1.0 from x = order, which cannot step from 2^53 on
    def refuse(order, count):
        raise AssertionError("the root scan was reached")

    monkeypatch.setattr(basis, "bessel_roots", refuse)
    t0 = time.perf_counter()
    assert run(["basis", "--system", "bessel_unit", "--bessel-order", str(10**20),
                "--count", "2"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "bessel_order" in err and len(err.strip().splitlines()) == 1


def test_coeffs_writes_pattern(tmp_path):
    assert run(["coeffs", "--config", coeffs_config(tmp_path)]) == 0
    rows = (tmp_path / "coeffs.csv").read_text().strip().splitlines()
    assert rows[0] == "j_1,j_2,value"
    table = {tuple(map(int, r.split(",")[:2])): float(r.split(",")[2]) for r in rows[1:]}
    assert table[(0, 0)] == pytest.approx(0.5, abs=1e-10)
    assert table[(0, 1)] == pytest.approx(1.0 / (2 * np.sqrt(3)), abs=1e-10)
    assert table[(1, 0)] == pytest.approx(-1.0 / (2 * np.sqrt(3)), abs=1e-10)
    assert (tmp_path / "coeffs.json").exists()


def test_coeffs_reads_integer_numbers_as_floats(tmp_path):
    # JSON integers are numbers: the interval and factor params give the same files as floats
    outputs = []
    for name, interval, param in (("floats", [0.0, 2.0], 3.0), ("ints", [0, 2], 3)):
        out = str(tmp_path / name)
        cfg = coeffs_config(tmp_path, interval=interval, out=out,
                            kernel=factors(("const", param), ("pow", param)))
        assert run(["coeffs", "--config", cfg]) == 0
        outputs.append([(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("csv", "json")])
    assert outputs[0] == outputs[1]


def test_coeffs_weights_a_weighted_system(tmp_path):
    cfg = coeffs_config(tmp_path, system={"kind": "bessel_weighted", "bessel_order": 1},
                        box=[3, 3])
    assert run(["coeffs", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "coeffs.json").read_text())
    assert doc["weighted"] is True
    want = coeff_tensor(unit_kernel(2, Interval(0.0, 1.0)), bessel_weighted(1.0, 1), (3, 3))
    assert doc["values"] == want.values.ravel().tolist()


def test_coeffs_oversize_box_is_resource_error(tmp_path):
    cfg = coeffs_config(tmp_path, box=[9999, 9999])
    assert run(["coeffs", "--config", cfg]) == 3
    assert not (tmp_path / "coeffs.csv").exists()


def test_coeffs_huge_box_order_trips_the_basis_table_guard(tmp_path, capsys):
    # 10**6 + 1 tensor entries pass the box check; the basis table on the nodes would not
    cfg = coeffs_config(tmp_path, box=[0, 10**6])
    assert run(["coeffs", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "basis table" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "coeffs.csv").exists()


@pytest.mark.parametrize("order", [0, 15])
def test_coeffs_bessel_system_runs(tmp_path, order):
    cfg = coeffs_config(tmp_path, system={"kind": "bessel_unit", "bessel_order": order},
                        box=[2, 2])
    assert run(["coeffs", "--config", cfg]) == 0
    assert (tmp_path / "coeffs.csv").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = coeffs_config(tmp_path, bogus=1)
    assert run(["coeffs", "--config", cfg]) == 2


def factors(*pairs):
    return {"factors": [{"name": name, "param": param} for name, param in pairs]}


# Probes shared by coeffs and converge: values of the wrong JSON type (a string
# or a bool where a number belongs), a NaN parameter, a kernel that is not an
# object, the removed keys "weighted" and system "max_walsh_bits" (a system
# weights itself; the Walsh cap is basis.WALSH_BITS), an output directory that
# does not exist, a pow exponent whose
# square is not integrable (exit 2), and kernels whose quadrature does not
# converge (exit 3).
SHARED_PROBES = [
    (dict(interval=["0", "1"]), 2),
    (dict(kernel=factors(("const", True), ("const", 1.0))), 2),
    (dict(kernel=[]), 2),
    (dict(kernel=factors(("const", float("nan")), ("const", 1.0))), 2),
    (dict(system={"kind": "bessel_weighted"}, weighted=True), 2),
    (dict(system={"kind": "walsh", "max_walsh_bits": 10}), 2),
    (dict(out=5), 2),
    (dict(kernel={"factors": [5, 6]}), 2),
    (dict(out="/nonexistent/dir/x"), 2),
    (dict(kernel=factors(("pow", -2.0), ("const", 1.0))), 2),
    (dict(kernel=factors(("pow", -0.4), ("const", 1.0))), 3),
    (dict(kernel=factors(("pow", 0.3), ("const", 1.0))), 3),
    (dict(kernel=factors(("exp", 1e6), ("const", 1.0))), 3),
    (dict(system={"kind": "bessel_unit", "bessel_order": 10**20}), 2),
]
SHARED_PROBE_IDS = ["string_interval", "bool_param", "list_kernel", "nan_param",
                    "removed_weighted_key", "removed_walsh_bits_key", "integer_out",
                    "integer_factors", "missing_out_directory",
                    "pow_exponent_not_square_integrable", "pow_exponent_quadrature_fails",
                    "fractional_pow_quadrature_fails", "exp_overflow_quadrature_fails",
                    "huge_bessel_order"]


COEFFS_PROBES = [
    (dict(box=[5.5, 5]), 2), (dict(box=5), 2), (dict(interval=[1.0, 0.0]), 2),
    (dict(kernel={"factors": [{"name": "const"}]}, system={"kind": "walsh"}, box=[1024]), 2),
    (dict(system={"kind": "bessel_unit", "bessel_order": 1.5}), 2),
    *SHARED_PROBES,
]
COEFFS_PROBE_IDS = ["fractional_box", "scalar_box", "reversed_interval", "walsh_order_over_bits",
                    "fractional_bessel_order", *SHARED_PROBE_IDS]


@pytest.mark.parametrize("overrides, code", COEFFS_PROBES, ids=COEFFS_PROBE_IDS)
def test_coeffs_rejects_malformed_configs_cleanly(tmp_path, capsys, overrides, code):
    assert run(["coeffs", "--config", coeffs_config(tmp_path, **overrides)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "coeffs.csv").exists()


def test_non_whitelisted_factor_rejected(tmp_path):
    cfg = coeffs_config(tmp_path, kernel={"factors": [{"name": "tabulated"}]})
    assert run(["coeffs", "--config", cfg]) == 2


def test_corrupt_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["coeffs", "--config", str(path)]) == 2


def test_converge_requires_seed(tmp_path):
    doc = {
        "interval": [0.0, 1.0],
        "kernel": {"factors": [{"name": "const"}, {"name": "const"}]},
        "system": {"kind": "legendre"},
        "driver": {"kind": "wiener", "m": 2},
        "combo": [1, 2],
        "boxes": [[1, 1]],
        "n_steps": 64,
        "trials": 10,
        "out": str(tmp_path / "conv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert run(["converge", "--config", str(path)]) == 2
    doc["seed"] = 7
    path.write_text(json.dumps(doc))
    assert run(["converge", "--config", str(path)]) == 0
    assert (tmp_path / "conv.csv").exists()
    assert json.loads((tmp_path / "conv.json").read_text())["seed"] == 7


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["nosuchcommand"])
    assert exc.value.code == 2


@pytest.mark.parametrize("driver, key", [
    ({"kind": "wiener", "m": 2}, {"rho": 2.0}),
    ({"kind": "wiener", "m": 2}, {"total_mass": 5.0}),
    ({"kind": "wiener", "m": 2}, {"mark_powers": [1.0, 1.0]}),
    ({"kind": "martingale", "m": 2, "rho": 2.0}, {"total_mass": 5.0}),
    ({"kind": "martingale", "m": 2, "rho": 2.0}, {"mark_powers": [1.0, 1.0]}),
    ({"kind": "poisson", "m": 2, "total_mass": 5.0}, {"rho": 2.0}),
], ids=["wiener_rho", "wiener_total_mass", "wiener_mark_powers", "martingale_total_mass",
        "martingale_mark_powers", "poisson_rho"])
def test_converge_rejects_driver_keys_of_other_kinds(tmp_path, capsys, driver, key):
    # each driver kind has its own schema: a key it would not read is an unknown key
    assert run(["converge", "--config", converge_config(tmp_path, driver=driver)]) == 0
    os.remove(tmp_path / "conv.json")
    capsys.readouterr()
    assert run(["converge", "--config", converge_config(tmp_path, driver={**driver, **key})]) == 2
    err = capsys.readouterr().err
    assert f"unknown key {next(iter(key))!r}" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "conv.json").exists()


POISSON_REPEATED = dict(driver={"kind": "poisson", "m": 1}, combo=[1, 1])
MARTINGALE_RHO2 = dict(driver={"kind": "martingale", "m": 1, "rho": 2.0}, combo=[1, 1])


CONVERGE_PROBES = [
    (dict(seed=1.5), 2),
    (dict(n_steps=10**12), 3),
    (dict(trials=10**12), 3),
    (dict(trials=10.7), 2),
    (dict(trials=True), 2),
    (dict(trials="10"), 2),
    (dict(n_steps=64.5), 2),
    (dict(n_steps="64"), 2),
    (dict(driver={"kind": "wiener", "m": 2.5}), 2),
    (dict(driver={"kind": "wiener", "m": "2"}), 2),
    (dict(driver={"kind": "wiener", "m": False}), 2),
    (dict(combo=[1.7, 2]), 2),
    (dict(combo=["1", 2]), 2),
    (dict(combo=["a", 2]), 2),
    (dict(combo=1), 2),
    (dict(boxes=[[1, 1.9]]), 2),
    (dict(boxes=[[-1, 1]]), 2),
    (dict(boxes=3), 2),
    (dict(boxes=[3]), 2),
    (dict(interval=[1.0, 0.0]), 2),
    (dict(interval=[0.5, 1.0], system={"kind": "bessel_unit"}), 2),
    (dict(system={"kind": "walsh"}, boxes=[[1024, 1]]), 2),
    (dict(driver={"kind": "martingale", "m": 2, "rho": -1}), 2),
    (dict(system={"kind": "bessel_unit", "bessel_order": 1.5}), 2),
    (dict(richardson="false"), 2),
    (dict(driver={"kind": "martingale", "m": 2, "rho": "2"}), 2),
    (dict(driver={"kind": "poisson", "m": 2, "total_mass": "5"}), 2),
    (dict(driver={"kind": "poisson", "m": 2, "mark_powers": [True, 1]}), 2),
    (dict(driver=[1]), 2),
    (dict(interval=[-1e308, 1e308]), 2),
    (dict(driver={"kind": "poisson", "m": 2, "mark_powers": [1e300, 1.0]}), 2),
    (dict(driver={"kind": "poisson", "m": 2, "mark_powers": [-3.0, 1.0]}), 2),
    (dict(kernel=factors(("const", 1e300), ("const", 1.0))), 3),
    (dict(boxes=[[0, 10**6]]), 3),
    (dict(driver={"kind": "bogus", "m": 2}), 2),
    (dict(system={"kind": "bessel_weighted"},
          driver={"kind": "martingale", "m": 2, "rho": 1e4}), 2),
    *SHARED_PROBES,
]
CONVERGE_PROBE_IDS = [
    "fractional_seed", "huge_n_steps", "huge_trials", "fractional_trials",
    "bool_trials", "string_trials", "fractional_n_steps", "string_n_steps",
    "fractional_m", "string_m", "bool_m", "fractional_combo", "string_combo",
    "letter_combo", "scalar_combo", "fractional_box", "negative_box", "scalar_boxes",
    "scalar_box", "reversed_interval", "shifted_bessel_interval", "walsh_order_over_bits",
    "negative_rho",
    "fractional_bessel_order", "string_richardson", "string_rho", "string_total_mass",
    "bool_mark_power", "list_driver", "infinite_interval_length", "infinite_mark_moment",
    "singular_mark_moment",
    "kernel_norm_overflow", "huge_box_basis_table", "unknown_driver_kind",
    "weighted_rho_ratio_unbounded", *SHARED_PROBE_IDS]


@pytest.mark.parametrize("overrides, code", CONVERGE_PROBES, ids=CONVERGE_PROBE_IDS)
def test_converge_rejects_malformed_configs_cleanly(tmp_path, capsys, overrides, code):
    assert run(["converge", "--config", converge_config(tmp_path, **overrides)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "conv.json").exists()


# Rows that fail by running the quadrature (ROADMAP item 3); every other row
# of the two tables above exits 2, or 3 through SizeError or OverflowError,
# before any work
QUADRATURE_PROBES = {"pow_exponent_quadrature_fails", "fractional_pow_quadrature_fails",
                     "exp_overflow_quadrature_fails"}
WORK = ((basis.OrthonormalSystem, "eval_table"), (quadrature, "adaptive"),
        *((module, f"sample_{kind}") for module in (drivers, harness)
          for kind in ("wiener", "gaussian_martingale", "poisson")))


@pytest.fixture
def work_calls(monkeypatch):
    """Names of the basis-table, quadrature and sampler functions called, in order."""
    calls = []
    for owner, name in WORK:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kw):
            calls.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("command, row, overrides, code", [
    *(("coeffs", row, *probe) for row, probe in zip(COEFFS_PROBE_IDS, COEFFS_PROBES)),
    *(("converge", row, *probe) for row, probe in zip(CONVERGE_PROBE_IDS, CONVERGE_PROBES)),
], ids=[*(f"coeffs-{row}" for row in COEFFS_PROBE_IDS),
        *(f"converge-{row}" for row in CONVERGE_PROBE_IDS)])
def test_refused_runs_build_nothing_first(tmp_path, capsys, work_calls, command, row,
                                          overrides, code):
    config = coeffs_config if command == "coeffs" else converge_config
    assert run([command, "--config", config(tmp_path, **overrides)]) == code
    err = capsys.readouterr().err
    if row in QUADRATURE_PROBES:
        assert code == 3 and "quadrature" in err and "adaptive" in work_calls
    else:
        assert work_calls == []


IV01 = Interval(0.0, 1.0)
# (system kind, system interval, box) of a coefficient box or index that every
# entry point refuses with ConfigError, and the CLI with exit 2; the CLI cannot
# give its kernel and its system different intervals
BAD_BOXES = {
    "walsh_order_1024": ("walsh", IV01, [1024, 1]),
    "mismatched_interval": ("legendre", Interval(0.0, 2.0), [1, 1]),
    "fractional_order": ("legendre", IV01, [2.7, 1]),
    "bool_order": ("legendre", IV01, [1, True]),
    "negative_order": ("legendre", IV01, [-1, 1]),
    "one_order_short": ("legendre", IV01, [3]),
}


def _wiener_spec(system, box):
    return harness.ExperimentSpec(kernel=unit_kernel(2, IV01), system=system, combo=(1, 2),
                                  boxes=[box], driver=harness.DriverConfig("wiener", m=2),
                                  n_steps=16, trials=2, seed=1)


@pytest.mark.parametrize("row", BAD_BOXES)
def test_a_bad_box_gets_one_answer_at_every_entry_point(tmp_path, capsys, work_calls, row):
    kind, interval, box = BAD_BOXES[row]
    system = OrthonormalSystem(kind, interval)
    for entry in (coeff, coeff_tensor):
        with pytest.raises(ConfigError):
            entry(unit_kernel(2, IV01), system, box)
    with pytest.raises(ConfigError):
        _wiener_spec(system, box)
    if interval == IV01:
        cfg = coeffs_config(tmp_path, system={"kind": kind}, box=box)
        assert run(["coeffs", "--config", cfg]) == 2
        cfg = converge_config(tmp_path, system={"kind": kind}, boxes=[box])
        assert run(["converge", "--config", cfg]) == 2
    assert work_calls == []


@pytest.mark.parametrize("box", [[9999, 9999], [0, 10**6]],
                         ids=["tensor_entries", "first_grid_basis_table"])
def test_an_oversize_box_is_refused_before_any_work(tmp_path, capsys, work_calls, box):
    # coeff builds one basis row of one index, not the tensor: these are the
    # rules of coeff_tensor, and of the spec for the tensor it will build
    system = basis.legendre(IV01)
    with pytest.raises(SizeError):
        coeff_tensor(unit_kernel(2, IV01), system, box)
    with pytest.raises(SizeError):
        _wiener_spec(system, box)
    assert run(["coeffs", "--config", coeffs_config(tmp_path, box=box)]) == 3
    assert run(["converge", "--config", converge_config(tmp_path, boxes=[box])]) == 3
    assert work_calls == []


def test_converge_correction_is_an_unknown_key(tmp_path, capsys):
    # the driver and the system decide the correction; no value of the former
    # key is read, whether the spec would derive it, reject it or not know it
    for base in (POISSON_REPEATED, MARTINGALE_RHO2, {}):
        for value in ("auto", "pairing_general", "prelimit", "explicit_k_le_4", "bogus", None):
            cfg = converge_config(tmp_path, correction=value, **base)
            assert run(["converge", "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert "unknown key 'correction'" in err and len(err.strip().splitlines()) == 1
            assert not (tmp_path / "conv.json").exists()


def test_coeffs_overflowing_exp_stops_at_the_first_grid(tmp_path, capsys):
    # exp(1000 (s - t)) is inf on the first grid: no refinement, and the cause is
    # the value, not the basis table of a later grid (box [20, 20])
    cfg = coeffs_config(tmp_path, kernel=factors(("exp", 1000.0), ("const", 1.0)), box=[20, 20])
    assert run(["coeffs", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "not finite" in err and len(err.strip().splitlines()) == 1


CONVERGE_BASE = {
    "interval": [0.0, 1.0],
    "kernel": factors(("const", 1.0), ("pow", 1.0)),
    "system": {"kind": "legendre", "bessel_order": 0},
    "combo": [1, 2],
    "boxes": [[1, 1], [2, 2]],
    "n_steps": 32,
    "trials": 4,
    "seed": 3,
    "richardson": True,
    "out": "result",
}
# one base per coeffs system family and per converge driver kind, named
# "<command> <variant>"; every mutation of a base starts from a config that runs
BASE_CONFIGS = {
    "coeffs legendre": {
        "interval": [0.0, 1.0],
        "kernel": factors(("const", 1.0), ("pow", 1.0)),
        "system": {"kind": "legendre", "bessel_order": 0},
        "box": [3, 3],
        "out": "result",
    },
    "coeffs bessel_unit": {
        "interval": [0.0, 1.0],
        "kernel": factors(("const", 1.0), ("pow", 1.0)),
        "system": {"kind": "bessel_unit", "bessel_order": 1},
        "box": [2, 2],
        "out": "result",
    },
    "converge wiener": dict(CONVERGE_BASE, driver={"kind": "wiener", "m": 2}),
    "converge martingale": dict(CONVERGE_BASE, driver={"kind": "martingale", "m": 2, "rho": 1.0}),
    "converge poisson": dict(CONVERGE_BASE, driver={"kind": "poisson", "m": 2, "total_mass": 5.0,
                                                    "mark_powers": [1.0, 1.0]}),
}
DROP = "<drop>"


def test_base_configs_list_every_schema_key():
    # a key the schema lacks would make every mutated config exit 2, and one the
    # base configs lack would never be mutated
    for name in BASE_CONFIGS:
        assert _run_mutated((name, [])) == 0, name
    listed = {}
    for name, doc in BASE_CONFIGS.items():
        sections = [(name.split()[0], doc), ("kernel", doc["kernel"]), ("system", doc["system"]),
                    *(("kernel factor", f) for f in doc["kernel"]["factors"])]
        if "driver" in doc:
            sections.append((f"driver {doc['driver']['kind']}", doc["driver"]))
        for section, keys in sections:
            listed.setdefault(section, set()).update(keys)
    assert listed == {name: set(keys) for name, keys in cli._SCHEMA.items()}


def _paths(doc, prefix=()):
    """Path of every key and list position in doc, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, value) -> None:
    """Replace the entry at path by value, or delete it for DROP; skip a path
    that an earlier mutation removed."""
    *head, last = path
    try:
        parent = functools.reduce(operator.getitem, head, doc)
        if value == DROP:
            del parent[last]
        else:
            parent[last] = copy.deepcopy(value)  # a value inserted twice must not nest in itself
    except (KeyError, IndexError, TypeError):
        pass


# Text has no "/", so every output path stays in the working directory;
# integers are small, or large enough to trip a budget guard at once, so every
# run stays small.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.just(10**18) | st.floats()
    | st.text(st.characters(blacklist_characters="/"), max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4)
MUTATED_CONFIGS = st.sampled_from(sorted(BASE_CONFIGS)).flatmap(lambda name: st.tuples(
    st.just(name),
    st.lists(st.tuples(st.sampled_from(list(_paths(BASE_CONFIGS[name]))),
                       st.just(DROP) | JSON_VALUES),
             min_size=1, max_size=3, unique_by=lambda mutation: mutation[0])))


def _run_mutated(case) -> int:
    """Exit code of the CLI on base config case[0] with the mutations case[1],
    run in a temporary directory; asserts that stderr holds no traceback."""
    name, mutations = case
    doc = copy.deepcopy(BASE_CONFIGS[name])
    for path, value in mutations:
        _mutate(doc, path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setattr(harness, "_worker_count", lambda n_chunks: 1)
        with open("config.json", "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([name.split()[0], "--config", "config.json"])
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(MUTATED_CONFIGS)
@example(("coeffs legendre", [(("kernel",), [])]))
@example(("converge wiener", [(("kernel", "factors", 0, "param"), float("nan"))]))
@example(("coeffs bessel_unit", [(("system", "bessel_order"), 10**18)]))
def test_mutated_configs_exit_cleanly(case):
    assert _run_mutated(case) in (0, 1, 2, 3)


K4 = dict(kernel={"factors": [{"name": "const"}] * 4}, boxes=[[0, 0, 0, 0], [1, 1, 1, 1]],
          n_steps=1024, trials=200, seed=5)


@pytest.mark.parametrize("overrides", [
    dict(K4, driver={"kind": "martingale", "m": 1, "rho": 2.0}, combo=[1, 1, 1, 1]),
    dict(K4, driver={"kind": "poisson", "m": 1}, combo=[1, 1, 1, 1]),
    dict(MARTINGALE_RHO2, kernel={"factors": [{"name": "const"}] * 2},
         boxes=[[0, 0], [3, 3], [7, 7]], n_steps=1024, trials=400),
], ids=["martingale_rho2_k4_prelimit", "poisson_k4_auto_prelimit", "martingale_rho2_repeated_auto"])
def test_converge_prelimit_is_exact_for_unit_kernels(tmp_path, overrides):
    # the unit kernel is phi_0-constant, so the prelimit expansion is the left-point sum,
    # for any increments
    assert run(["converge", "--config", converge_config(tmp_path, **overrides)]) == 0
    doc = json.loads((tmp_path / "conv.json").read_text())
    assert doc["correction"] == "prelimit"
    assert all(b["mse"] < 1e-20 for b in doc["boxes"])


@pytest.mark.parametrize("workers", [1, 2])
def test_converge_k5_prelimit_block_products_trip_the_guard(tmp_path, capsys, monkeypatch, workers):
    # G_k's five-slot block multiplies out 8^4 x 2^18 floats (8.6 GB) per worker
    def no_draw(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(harness, "sample_gaussian_martingale", no_draw)
    monkeypatch.setattr(harness, "_worker_count", lambda n_chunks: min(workers, n_chunks))
    cfg = converge_config(tmp_path, kernel={"factors": [{"name": "const"}] * 5},
                          driver={"kind": "martingale", "m": 1, "rho": 2.0}, combo=[1] * 5,
                          boxes=[[7] * 5], n_steps=2**18, trials=4)
    assert run(["converge", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "resource guard" in err and "Traceback" not in err
    assert not (tmp_path / "conv.json").exists()


@pytest.mark.parametrize("seed", [7, 2**130])
def test_converge_draws_numpys_seed_sequence_streams(seed, tmp_path, monkeypatch):
    """Reports are bitwise those drawn from PCG64(SeedSequence(seed, spawn_key=(trial,
    component))) streams built by numpy, with Wiener and Poisson drivers."""
    poisson = {"kind": "poisson", "m": 2, "total_mass": 5.0, "mark_powers": [1.0, 1.0]}
    for name, driver in (("wiener", {"kind": "wiener", "m": 2}), ("poisson", poisson)):
        (tmp_path / name).mkdir()
        cfg = converge_config(tmp_path / name, seed=seed, trials=30, driver=driver,
                              richardson=True)
        docs = []
        for streams in ("derived", "numpy"):
            if streams == "numpy":
                monkeypatch.setattr(drivers, "component_rng", lambda s, c: np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence(s.entropy,
                                                           spawn_key=(*s.spawn_key, c)))))
            assert run(["converge", "--config", cfg]) == 0
            doc = json.loads((tmp_path / name / "conv.json").read_text())
            doc.pop("runtime_seconds")
            docs.append(doc)
        monkeypatch.undo()
        assert docs[0] == docs[1] and docs[0]["seed"] == seed


def test_converge_worker_error_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    sample = harness.sample_wiener

    def sampler(part, m, seed):
        if seed.spawn_key == (9,):
            raise SizeError("jump budget exceeded on the last trial")
        return sample(part, m, seed)

    monkeypatch.setattr(harness, "sample_wiener", sampler)
    # chunks of 2 trials (each 8 rows of 64 steps and 8 variables, 8 bytes a float),
    # spread over 3 workers
    monkeypatch.setattr(harness, "CHUNK_BYTES", 2 * 8 * (8 * 64 + 8))
    monkeypatch.setattr(harness, "_worker_count", lambda n_chunks: min(3, n_chunks))
    assert run(["converge", "--config", converge_config(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "last trial" in err and "Traceback" not in err
    assert not (tmp_path / "conv.json").exists()


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_heavy_modules_out():
    lazy = ("stochexpand.validation", "mpmath", "scipy", "scipy.special", "scipy.optimize",
            "multiprocessing", "concurrent.futures", "concurrent.futures.process", "numpy.random")
    code = ("import sys, stochexpand.cli; "
            f"print(','.join(m for m in {lazy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == ""


def test_a_sharded_pass_loads_no_process_pool():
    # two workers fork directly: neither concurrent.futures nor multiprocessing is imported
    pools = ("multiprocessing", "concurrent.futures")
    code = ("import os, sys; from stochexpand import basis, harness, kernel; "
            "harness._worker_count = lambda n_chunks: min(2, n_chunks); "
            "harness.CHUNK_BYTES = 2**16; "
            "iv = basis.Interval(0.0, 1.0); "
            "spec = harness.ExperimentSpec(kernel.unit_kernel(2, iv), basis.legendre(iv), (1, 2), "
            "((1, 1),), harness.DriverConfig('wiener', m=2), 64, 40, 5); "
            "forks = []; fork = os.fork; os.fork = lambda: forks.append(1) or fork(); "
            "harness.run_experiment(spec); "
            f"print(len(forks), ','.join(m for m in {pools!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["1"]


def test_failures_print_one_stderr_line_as_a_program(tmp_path):
    # pytest captures numpy's warnings, so only a separate process shows them
    for name in ("coeffs", "converge"):
        (tmp_path / name).mkdir()
    cases = [
        ("coeffs", coeffs_config(tmp_path / "coeffs", box=[20, 20],
                                 kernel=factors(("exp", 1000.0), ("const", 1.0))), 3),
        ("converge", converge_config(tmp_path / "converge", driver={
            "kind": "poisson", "m": 2, "mark_powers": [1e300, 1.0]}), 2),
    ]
    for command, cfg, code in cases:
        out = subprocess.run([sys.executable, "-m", "stochexpand.cli", command, "--config", cfg],
                             env=_subprocess_env(), capture_output=True, text=True)
        assert out.returncode == code
        assert len(out.stderr.strip().splitlines()) == 1, out.stderr


def test_runs_without_bessel_systems_load_no_scipy(tmp_path):
    for name in ("wiener", "poisson", "haar"):
        (tmp_path / name).mkdir()
    poisson = {"kind": "poisson", "m": 2, "total_mass": 5.0, "mark_powers": [1.0, 1.0]}
    configs = [
        ("converge", converge_config(tmp_path / "wiener", trials=20)),
        ("converge", converge_config(tmp_path / "poisson", trials=20, driver=poisson,
                                     combo=[1, 1])),
        ("coeffs", coeffs_config(tmp_path / "haar", system={"kind": "haar"}, box=[3, 3])),
    ]
    code = ("import sys; from stochexpand import cli; "
            f"codes = [cli.main([cmd, '--config', cfg]) for cmd, cfg in {configs!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True,
                         text=True, check=True).stdout.strip().splitlines()[-1]
    assert out == "[0, 0, 0] []"


def test_validate_quick_profile_passes_every_check(capsys):
    assert run(["validate", "--profile", "quick"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[PASS] ") for line in lines) == 10
    assert lines[-1] == "10 of 10 checks passed"


def test_validate_exits_1_on_a_failed_check(monkeypatch, capsys):
    from stochexpand import validation
    name = validation.CRITERIA[0][0]

    def failing(full):
        return validation.CriterionResult(name, False, "forced failure", 0.0)

    monkeypatch.setattr(validation, "CRITERIA", ((name, failing), *validation.CRITERIA[1:]))
    assert run(["validate", "--profile", "quick"]) == cli.EXIT_FAIL
    out = capsys.readouterr().out.splitlines()
    assert f"[FAIL] {name} (0.0s): forced failure" in out
    assert out[-1] == "9 of 10 checks passed"


def test_validate_rejects_an_unknown_profile():
    from stochexpand import validation
    with pytest.raises(ValueError, match="unknown validation profile: bogus"):
        validation.run_profile("bogus")


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "converge must be a JSON object"), (None, "cannot read config")],
    ids=["json_list", "missing_file"])
def test_converge_rejects_an_unreadable_config(content, message, tmp_path, capsys):
    config = tmp_path / "converge.json"
    if content is not None:
        config.write_text(content)
    assert run(["converge", "--config", str(config)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
