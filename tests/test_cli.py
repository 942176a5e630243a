import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stochexpand import cli, harness
from stochexpand.errors import SizeError


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


def test_basis_bessel():
    assert run(["basis", "--system", "bessel_weighted", "--count", "5"]) == 0


def test_basis_unknown_system():
    assert run(["basis", "--system", "nosuch"]) == 2


def test_coeffs_writes_pattern(tmp_path):
    assert run(["coeffs", "--config", coeffs_config(tmp_path)]) == 0
    rows = (tmp_path / "coeffs.csv").read_text().strip().splitlines()
    assert rows[0] == "j_1,j_2,value"
    table = {tuple(map(int, r.split(",")[:2])): float(r.split(",")[2]) for r in rows[1:]}
    assert table[(0, 0)] == pytest.approx(0.5, abs=1e-10)
    assert table[(0, 1)] == pytest.approx(1.0 / (2 * np.sqrt(3)), abs=1e-10)
    assert table[(1, 0)] == pytest.approx(-1.0 / (2 * np.sqrt(3)), abs=1e-10)
    assert (tmp_path / "coeffs.json").exists()


def test_coeffs_oversize_box_is_resource_error(tmp_path):
    cfg = coeffs_config(tmp_path, box=[9999, 9999])
    assert run(["coeffs", "--config", cfg]) == 3
    assert not (tmp_path / "coeffs.csv").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = coeffs_config(tmp_path, bogus=1)
    assert run(["coeffs", "--config", cfg]) == 2


@pytest.mark.parametrize("overrides", [
    dict(box=[5.5, 5]), dict(box=5), dict(interval=[1.0, 0.0]),
    dict(kernel={"factors": [{"name": "const"}]}, system={"kind": "walsh"}, box=[1024]),
    dict(system={"kind": "bessel_unit", "bessel_order": 1.5}),
    dict(system={"kind": "walsh", "max_walsh_bits": 2.7}, box=[1, 1]),
    dict(weighted=True),
], ids=["fractional_box", "scalar_box", "reversed_interval", "walsh_order_over_bits",
        "fractional_bessel_order", "fractional_walsh_bits", "weighted_unit_weight_system"])
def test_coeffs_rejects_malformed_configs_cleanly(tmp_path, capsys, overrides):
    assert run(["coeffs", "--config", coeffs_config(tmp_path, **overrides)]) == 2
    assert "Traceback" not in capsys.readouterr().err
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


POISSON_REPEATED = dict(driver={"kind": "poisson", "m": 1}, combo=[1, 1])
MARTINGALE_RHO2 = dict(driver={"kind": "martingale", "m": 1, "rho": 2.0}, combo=[1, 1])


@pytest.mark.parametrize("overrides, code", [
    (dict(correction="bogus"), 2),
    (dict(seed=1.5), 2),
    (dict(n_steps=10**12), 3),
    (dict(trials=10**12), 3),
    (dict(POISSON_REPEATED, correction="pairing_general"), 2),
    (dict(POISSON_REPEATED, correction="explicit_k_le_4"), 2),
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
    (dict(MARTINGALE_RHO2, correction="pairing_general"), 2),
    (dict(MARTINGALE_RHO2, correction="explicit_k_le_4"), 2),
    (dict(weighted=True), 2),
    (dict(driver={"kind": "martingale", "m": 2, "rho": -1}), 2),
    (dict(system={"kind": "bessel_unit", "bessel_order": 1.5}), 2),
    (dict(system={"kind": "walsh", "max_walsh_bits": 2.7}), 2),
], ids=["unknown_correction", "fractional_seed", "huge_n_steps", "huge_trials",
        "poisson_repeated_pairing", "poisson_repeated_explicit", "fractional_trials",
        "bool_trials", "string_trials", "fractional_n_steps", "string_n_steps",
        "fractional_m", "string_m", "bool_m", "fractional_combo", "string_combo",
        "letter_combo", "scalar_combo", "fractional_box", "negative_box", "scalar_boxes",
        "scalar_box", "reversed_interval", "shifted_bessel_interval", "walsh_order_over_bits",
        "martingale_rho2_repeated_pairing", "martingale_rho2_repeated_explicit",
        "weighted_unit_weight_system", "negative_rho", "fractional_bessel_order",
        "fractional_walsh_bits"])
def test_converge_rejects_malformed_configs_cleanly(tmp_path, capsys, overrides, code):
    assert run(["converge", "--config", converge_config(tmp_path, **overrides)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "conv.json").exists()


K4 = dict(kernel={"factors": [{"name": "const"}] * 4}, boxes=[[0, 0, 0, 0], [1, 1, 1, 1]],
          n_steps=1024, trials=200, seed=5)


@pytest.mark.parametrize("overrides", [
    dict(K4, combo=[1, 1, 1, 1], correction="prelimit"),
    dict(K4, driver={"kind": "poisson", "m": 1}, combo=[1, 1, 1, 1]),
    dict(MARTINGALE_RHO2, kernel={"factors": [{"name": "const"}] * 2},
         boxes=[[0, 0], [3, 3], [7, 7]], n_steps=1024, trials=400),
], ids=["wiener_k4_prelimit", "poisson_k4_auto_prelimit", "martingale_rho2_repeated_auto"])
def test_converge_prelimit_is_exact_for_unit_kernels(tmp_path, overrides):
    # the unit kernel is phi_0-constant, so the prelimit expansion is the left-point sum
    assert run(["converge", "--config", converge_config(tmp_path, **overrides)]) == 0
    doc = json.loads((tmp_path / "conv.json").read_text())
    assert doc["correction"] == "prelimit"
    assert all(b["mse"] < 1e-20 for b in doc["boxes"])


@pytest.mark.parametrize("workers", [1, 2])
def test_converge_k5_prelimit_block_products_trip_the_guard(tmp_path, capsys, monkeypatch, workers):
    # G_k's five-slot block multiplies out 8^4 x 2^18 floats (8.6 GB) per worker
    def no_draw(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(harness, "sample_wiener", no_draw)
    monkeypatch.setattr(harness, "_worker_count", lambda n_chunks: min(workers, n_chunks))
    cfg = converge_config(tmp_path, kernel={"factors": [{"name": "const"}] * 5},
                          driver={"kind": "wiener", "m": 1}, combo=[1] * 5,
                          boxes=[[7] * 5], n_steps=2**18, trials=4, correction="prelimit")
    assert run(["converge", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "resource guard" in err and "Traceback" not in err
    assert not (tmp_path / "conv.json").exists()


def test_converge_worker_error_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    sample = harness.sample_wiener

    def sampler(part, m, seed):
        if seed.spawn_key == (9,):
            raise SizeError("jump budget exceeded on the last trial")
        return sample(part, m, seed)

    monkeypatch.setattr(harness, "sample_wiener", sampler)
    # chunks of 2 trials (8 * 64 * 5 bytes each), spread over 3 workers
    monkeypatch.setattr(harness, "CHUNK_BYTES", 2 * 8 * 64 * 5)
    monkeypatch.setattr(harness, "_worker_count", lambda n_chunks: min(3, n_chunks))
    assert run(["converge", "--config", converge_config(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "last trial" in err and "Traceback" not in err
    assert not (tmp_path / "conv.json").exists()


def test_cli_import_leaves_heavy_modules_out():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # concurrent.futures itself is not listed: numpy.testing, which scipy.special loads, imports it
    lazy = ("stochexpand.validation", "mpmath", "scipy.optimize", "multiprocessing",
            "concurrent.futures.process")
    code = ("import sys, stochexpand.cli; "
            f"print(','.join(m for m in {lazy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.strip()
    assert out == ""
