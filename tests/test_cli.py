import json

import numpy as np
import pytest

from stochexpand import cli


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


@pytest.mark.parametrize("overrides, code", [
    (dict(correction="bogus"), 2),
    (dict(seed=1.5), 2),
    (dict(n_steps=10**12), 3),
    (dict(trials=10**12), 3),
], ids=["unknown_correction", "fractional_seed", "huge_n_steps", "huge_trials"])
def test_converge_rejects_malformed_configs_cleanly(tmp_path, capsys, overrides, code):
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
    assert run(["converge", "--config", str(path)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "conv.json").exists()
