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

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from stochexpand import cli, drivers, harness
from stochexpand.basis import OrthonormalSystem
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


def test_coeffs_walsh_bit_count_is_not_computed_as_a_power(tmp_path):
    tensors = []
    for bits in (10**18, 10):
        out = str(tmp_path / f"bits{bits}")
        cfg = coeffs_config(tmp_path, system={"kind": "walsh", "max_walsh_bits": bits},
                            box=[1, 1], out=out)
        assert run(["coeffs", "--config", cfg]) == 0
        tensors.append(json.loads((tmp_path / f"bits{bits}.json").read_text()))
    assert tensors[0]["values"] == tensors[1]["values"]


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
# or a bool where a number or flag belongs), a NaN parameter, a kernel that is
# not an object, an output directory that does not exist, a pow exponent whose
# square is not integrable (exit 2), and kernels whose quadrature does not
# converge (exit 3).
SHARED_PROBES = [
    (dict(interval=["0", "1"]), 2),
    (dict(kernel=factors(("const", True), ("const", 1.0))), 2),
    (dict(kernel=[]), 2),
    (dict(kernel=factors(("const", float("nan")), ("const", 1.0))), 2),
    (dict(system={"kind": "bessel_weighted"}, weighted="false"), 2),
    (dict(out=5), 2),
    (dict(kernel={"factors": [5, 6]}), 2),
    (dict(out="/nonexistent/dir/x"), 2),
    (dict(kernel=factors(("pow", -2.0), ("const", 1.0))), 2),
    (dict(kernel=factors(("pow", -0.4), ("const", 1.0))), 3),
    (dict(kernel=factors(("pow", 0.3), ("const", 1.0))), 3),
    (dict(kernel=factors(("exp", 1e6), ("const", 1.0))), 3),
]
SHARED_PROBE_IDS = ["string_interval", "bool_param", "list_kernel", "nan_param", "string_weighted",
                    "integer_out", "integer_factors", "missing_out_directory",
                    "pow_exponent_not_square_integrable", "pow_exponent_quadrature_fails",
                    "fractional_pow_quadrature_fails", "exp_overflow_quadrature_fails"]


@pytest.mark.parametrize("overrides, code", [
    (dict(box=[5.5, 5]), 2), (dict(box=5), 2), (dict(interval=[1.0, 0.0]), 2),
    (dict(kernel={"factors": [{"name": "const"}]}, system={"kind": "walsh"}, box=[1024]), 2),
    (dict(system={"kind": "bessel_unit", "bessel_order": 1.5}), 2),
    (dict(system={"kind": "walsh", "max_walsh_bits": 2.7}, box=[1, 1]), 2),
    (dict(weighted=True), 2),
    *SHARED_PROBES,
], ids=["fractional_box", "scalar_box", "reversed_interval", "walsh_order_over_bits",
        "fractional_bessel_order", "fractional_walsh_bits", "weighted_unit_weight_system",
        *SHARED_PROBE_IDS])
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


POISSON_REPEATED = dict(driver={"kind": "poisson", "m": 1}, combo=[1, 1])
MARTINGALE_RHO2 = dict(driver={"kind": "martingale", "m": 1, "rho": 2.0}, combo=[1, 1])


@pytest.mark.parametrize("overrides, code", [
    (dict(correction="bogus"), 2),
    (dict(seed=1.5), 2),
    (dict(n_steps=10**12), 3),
    (dict(trials=10**12), 3),
    (dict(POISSON_REPEATED, correction="pairing_general"), 2),
    (dict(correction="explicit_k_le_4"), 2),
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
    (dict(MARTINGALE_RHO2, correction=None), 2),
    (dict(weighted=True), 2),
    (dict(driver={"kind": "martingale", "m": 2, "rho": -1}), 2),
    (dict(system={"kind": "bessel_unit", "bessel_order": 1.5}), 2),
    (dict(system={"kind": "walsh", "max_walsh_bits": 2.7}), 2),
    (dict(richardson="false"), 2),
    (dict(driver={"kind": "martingale", "m": 2, "rho": "2"}), 2),
    (dict(driver={"kind": "poisson", "m": 2, "total_mass": "5"}), 2),
    (dict(driver={"kind": "poisson", "m": 2, "mark_powers": [True, 1]}), 2),
    (dict(driver=[1]), 2),
    (dict(interval=[-1e308, 1e308]), 2),
    (dict(driver={"kind": "poisson", "m": 2, "mark_powers": [1e300, 1.0]}), 2),
    (dict(kernel=factors(("const", 1e300), ("const", 1.0))), 3),
    (dict(boxes=[[0, 10**6]]), 3),
    *SHARED_PROBES,
], ids=["unknown_correction", "fractional_seed", "huge_n_steps", "huge_trials",
        "poisson_repeated_pairing", "removed_explicit_correction", "fractional_trials",
        "bool_trials", "string_trials", "fractional_n_steps", "string_n_steps",
        "fractional_m", "string_m", "bool_m", "fractional_combo", "string_combo",
        "letter_combo", "scalar_combo", "fractional_box", "negative_box", "scalar_boxes",
        "scalar_box", "reversed_interval", "shifted_bessel_interval", "walsh_order_over_bits",
        "martingale_rho2_repeated_pairing", "null_correction",
        "weighted_unit_weight_system", "negative_rho", "fractional_bessel_order",
        "fractional_walsh_bits", "string_richardson", "string_rho", "string_total_mass",
        "bool_mark_power", "list_driver", "infinite_interval_length", "infinite_mark_moment",
        "kernel_norm_overflow", "huge_box_basis_table", *SHARED_PROBE_IDS])
def test_converge_rejects_malformed_configs_cleanly(tmp_path, capsys, overrides, code):
    assert run(["converge", "--config", converge_config(tmp_path, **overrides)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "conv.json").exists()


BASE_CONFIGS = {
    "coeffs": {
        "interval": [0.0, 1.0],
        "kernel": factors(("const", 1.0), ("pow", 1.0)),
        "system": {"kind": "legendre", "bessel_order": 0, "max_walsh_bits": 10},
        "box": [3, 3],
        "weighted": False,
        "out": "result",
    },
    "converge": {
        "interval": [0.0, 1.0],
        "kernel": factors(("const", 1.0), ("pow", 1.0)),
        "system": {"kind": "legendre", "bessel_order": 0, "max_walsh_bits": 10},
        "driver": {"kind": "wiener", "m": 2, "rho": 1.0, "total_mass": 5.0,
                   "mark_powers": [1.0, 1.0]},
        "combo": [1, 2],
        "boxes": [[1, 1], [2, 2]],
        "n_steps": 32,
        "trials": 4,
        "seed": 3,
        "correction": "auto",
        "weighted": False,
        "richardson": True,
        "out": "result",
    },
}
DROP = "<drop>"


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
MUTATED_CONFIGS = st.sampled_from(sorted(BASE_CONFIGS)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.lists(st.tuples(st.sampled_from(list(_paths(BASE_CONFIGS[command]))),
                       st.just(DROP) | JSON_VALUES),
             min_size=1, max_size=3, unique_by=lambda mutation: mutation[0])))


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(MUTATED_CONFIGS)
@example(("coeffs", [(("kernel",), [])]))
@example(("converge", [(("kernel", "factors", 0, "param"), float("nan"))]))
def test_mutated_configs_exit_cleanly(case):
    command, mutations = case
    doc = copy.deepcopy(BASE_CONFIGS[command])
    for path, value in mutations:
        _mutate(doc, path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setattr(harness, "_worker_count", lambda n_chunks: 1)
        with open("config.json", "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", "config.json"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


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
    # chunks of 2 trials (8 * 64 * 5 bytes each), spread over 3 workers
    monkeypatch.setattr(harness, "CHUNK_BYTES", 2 * 8 * 64 * 5)
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


def test_runs_without_bessel_systems_load_no_scipy(tmp_path):
    for name in ("wiener", "poisson", "haar"):
        (tmp_path / name).mkdir()
    poisson = {"kind": "poisson", "m": 2, "total_mass": 5.0, "mark_powers": [1.0, 1.0]}
    configs = [
        ("converge", converge_config(tmp_path / "wiener", trials=20)),
        ("converge", converge_config(tmp_path / "poisson", trials=20, driver=poisson,
                                     combo=[1, 1], correction="prelimit")),
        ("coeffs", coeffs_config(tmp_path / "haar", system={"kind": "haar"}, box=[3, 3])),
    ]
    code = ("import sys; from stochexpand import cli; "
            f"codes = [cli.main([cmd, '--config', cfg]) for cmd, cfg in {configs!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True,
                         text=True, check=True).stdout.strip().splitlines()[-1]
    assert out == "[0, 0, 0] []"
