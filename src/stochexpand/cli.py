"""Command-line interface.

Subcommands: ``basis`` (Gram-matrix check of an orthonormal system),
``coeffs`` (coefficient tensor export), ``converge`` (Monte Carlo
oracle-vs-expansion table) and ``validate`` (built-in check suites).

Exit codes: 0 success; 1 validation failure; 2 usage or config error (an
unknown key, a value of the wrong JSON type or out of range, an output
directory that does not exist); 3 resource guard tripped or numerical
failure (quadrature that does not converge, a result beyond the float
range).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from .basis import GRAM_TOLERANCES, Interval, OrthonormalSystem, gram_matrix
from .drivers import exponential_measure, power_mark
from .errors import ConfigError, SizeError, StochexpandError
from .harness import DriverConfig, ExperimentSpec, report_to_csv, report_to_json, run_experiment
from .kernel import Factor, Kernel, coeff_tensor, tensor_to_files

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# The keys each config section may hold and the JSON type of each; [t] is a
# list of t.  A number is finite, and a bool is never a number.  A driver
# block holds only the keys its kind reads.
_SCHEMA = {
    "coeffs": {"interval": "[number]", "kernel": "object", "system": "object",
               "box": "[integer]", "out": "string"},
    "converge": {"interval": "[number]", "kernel": "object", "system": "object",
                 "driver": "object", "combo": "[integer]", "boxes": "[[integer]]",
                 "n_steps": "integer", "trials": "integer", "seed": "integer",
                 "richardson": "boolean", "out": "string"},
    "kernel": {"factors": "[object]"},
    "kernel factor": {"name": "string", "param": "number"},
    "system": {"kind": "string", "bessel_order": "integer"},
    "driver wiener": {"kind": "string", "m": "integer"},
    "driver martingale": {"kind": "string", "m": "integer", "rho": "number"},
    "driver poisson": {"kind": "string", "m": "integer", "total_mass": "number",
                       "mark_powers": "[number]"},
}
# a seed is required because all randomness must be reproducible
_REQUIRED = {"coeffs": ("interval", "kernel", "system", "box"),
             "converge": ("interval", "kernel", "system", "seed")}


def _conforms(value, json_type: str) -> bool:
    if json_type.startswith("["):
        return isinstance(value, list) and all(_conforms(v, json_type[1:-1]) for v in value)
    if isinstance(value, bool) or json_type == "boolean":
        return isinstance(value, bool) and json_type == "boolean"
    if json_type == "number":
        return isinstance(value, (int, float)) and -sys.float_info.max <= value <= sys.float_info.max
    return isinstance(value, {"integer": int, "string": str, "object": dict}[json_type])


def _section(doc, name: str) -> dict:
    """doc, checked against the schema of config section name.

    Raises ConfigError if doc is not an object, holds an unknown key or a
    value of the wrong JSON type, or lacks a required key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    schema = _SCHEMA[name]
    for key, value in doc.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in {name}")
        if not _conforms(value, schema[key]):
            raise ConfigError(f"{name} {key} must be of JSON type {schema[key]}, got {value!r}")
    missing = [key for key in _REQUIRED.get(name, ()) if key not in doc]
    if missing:
        raise ConfigError(f"{name} is missing the required keys {missing}")
    return doc


@contextlib.contextmanager
def _config_values():
    """Turn the ValueError or TypeError of a config constructor (Interval,
    OrthonormalSystem, Kernel, DriverConfig, ...) into a ConfigError."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_config(path: str, command: str):
    """(document, kernel, system, output stem) of a coeffs or converge config."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _section(doc, command)
    if len(doc["interval"]) != 2:
        raise ConfigError("interval must be a [start, end] pair")
    factors = [_section(f, "kernel factor")
               for f in _section(doc["kernel"], "kernel").get("factors", [])]
    out = doc.get("out", command)
    folder = os.path.dirname(out) or "."
    # open() would reject a NUL byte only after all the work
    if "\0" in out or not os.path.isdir(folder):
        raise ConfigError(f"out must name a file in an existing directory, got {out!r}")
    with _config_values():
        interval = Interval(*doc["interval"])
        kern = Kernel(tuple(Factor(**f) for f in factors), interval)
        system = OrthonormalSystem(interval=interval, **_section(doc["system"], "system"))
    return doc, kern, system, out


def _driver_from_config(doc, k: int) -> DriverConfig:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if f"driver {kind}" not in _SCHEMA:
        raise ConfigError(f"driver must be an object of kind wiener, martingale or poisson, "
                          f"got {doc!r}")
    _section(doc, f"driver {kind}")
    m = doc.get("m", 2)
    if kind == "martingale":
        return DriverConfig(kind, m=m, rho=doc.get("rho", 1.0))
    if kind == "poisson":
        return DriverConfig(kind, m=m, intensity=exponential_measure(doc.get("total_mass", 5.0)),
                            mark_factors=tuple(map(power_mark, doc.get("mark_powers", [1.0] * k))))
    return DriverConfig(kind, m=m)


def cmd_basis(args) -> int:
    with _config_values():
        interval = Interval(args.interval[0], args.interval[1])
        system = OrthonormalSystem(args.system, interval, bessel_order=args.bessel_order)
        gram = gram_matrix(system, args.count)
    deviation = float(np.max(np.abs(gram - np.eye(args.count))))
    tol = GRAM_TOLERANCES[system.kind]
    if args.out:
        np.savetxt(args.out, gram, delimiter=",", fmt="%.17g")
    print(f"system={args.system} count={args.count} max_gram_deviation={deviation:.3e} "
          f"tolerance={tol:.0e}")
    return EXIT_OK if deviation < tol else EXIT_FAIL


def cmd_coeffs(args) -> int:
    doc, kern, system, out = _read_config(args.config, "coeffs")
    tensor = coeff_tensor(kern, system, doc["box"])
    tensor_to_files(tensor, f"{out}.csv", f"{out}.json")
    print(f"wrote {out}.csv and {out}.json "
          f"(box {'x'.join(str(p + 1) for p in tensor.box)} entries, "
          f"quadrature error estimate {tensor.quad_error:.2e})")
    return EXIT_OK


def cmd_converge(args) -> int:
    doc, kern, system, out = _read_config(args.config, "converge")
    with _config_values():
        spec = ExperimentSpec(
            kernel=kern, system=system,
            combo=doc.get("combo", ()),
            boxes=doc.get("boxes", ()),
            driver=_driver_from_config(doc.get("driver", {"kind": "wiener"}), kern.multiplicity),
            n_steps=doc.get("n_steps", 1024),
            trials=doc.get("trials", 1000),
            seed=doc["seed"],
            richardson=doc.get("richardson", False))
    report = run_experiment(spec)
    report_to_csv(report, f"{out}.csv")
    report_to_json(report, f"{out}.json")
    for s in report.stats:
        print(f"box {'x'.join(str(p) for p in s.box)}: mse={s.mse:.6e} "
              f"residual={s.residual:.6e} ci99={s.mse_halfwidth_99:.2e}")
    print(f"wrote {out}.csv and {out}.json ({report.runtime:.1f}s)")
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import validation  # imports mpmath, which no other command needs
    results = validation.run_profile(args.profile)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)} of {len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process and shared: parse_args leaves
    it unchanged, and callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="stochexpand",
        description="Truncated series expansion of multiple stochastic integrals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="Gram-matrix orthonormality check")
    p.add_argument("--system", required=True)
    p.add_argument("--interval", nargs=2, type=float, default=[0.0, 1.0])
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--bessel-order", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("coeffs", help="compute and export a coefficient tensor")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("converge", help="coupled oracle/expansion Monte Carlo table")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("validate", help="run the built-in check suite")
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the guards test finiteness themselves, so numpy's floating-point
        # warnings would only add stderr lines before the one error line
        with np.errstate(all="ignore"):
            return args.func(args)
    except SizeError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StochexpandError, OverflowError) as exc:
        # quadrature that did not converge, a Bessel zero that could not be
        # bracketed, or a result beyond the float range
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
