"""Command-line interface.

Subcommands: ``basis`` (Gram-matrix check of an orthonormal system),
``coeffs`` (coefficient tensor export), ``converge`` (Monte Carlo
oracle-vs-expansion table) and ``validate`` (built-in check suites).

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .basis import Interval, OrthonormalSystem, gram_matrix
from .drivers import exponential_measure
from .errors import ConfigError, SizeError
from .harness import (DriverConfig, ExperimentSpec, power_mark, report_to_csv,
                      report_to_json, run_experiment)
from .kernel import Factor, Kernel, coeff_tensor, tensor_to_csv, tensor_to_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_SYSTEM_KINDS = ("legendre", "trigonometric", "haar", "walsh",
                 "bessel_weighted", "bessel_unit")

_GRAM_TOLERANCES = {
    "legendre": 1e-12,
    "trigonometric": 1e-12,
    "haar": 1e-13,
    "walsh": 1e-13,
    "bessel_weighted": 1e-8,
    "bessel_unit": 1e-8,
}


def _require_keys(doc: dict, allowed, where: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _system_from_config(doc: dict, interval: Interval) -> OrthonormalSystem:
    _require_keys(doc, {"kind", "bessel_order", "max_walsh_bits"}, "system")
    kind = doc.get("kind")
    if kind not in _SYSTEM_KINDS:
        raise ConfigError(f"system kind must be one of {_SYSTEM_KINDS}, got {kind!r}")
    return OrthonormalSystem(kind, interval,
                             bessel_order=int(doc.get("bessel_order", 0)),
                             max_walsh_bits=int(doc.get("max_walsh_bits", 10)))


def _kernel_from_config(doc: dict, interval: Interval) -> Kernel:
    _require_keys(doc, {"factors"}, "kernel")
    factors = []
    for entry in doc.get("factors", ()):
        _require_keys(entry, {"name", "param"}, "kernel factor")
        name = entry.get("name")
        if name not in ("const", "pow", "sqrt_shift", "exp"):
            raise ConfigError(f"kernel factor {name!r} is not in the config whitelist")
        factors.append(Factor(name, float(entry.get("param", 1.0))))
    if not factors:
        raise ConfigError("kernel needs at least one factor")
    return Kernel(tuple(factors), interval)


def _driver_from_config(doc: dict, k: int) -> DriverConfig:
    _require_keys(doc, {"kind", "m", "rho", "total_mass", "mark_powers"}, "driver")
    kind = doc.get("kind")
    m = doc.get("m", 2)
    if kind == "martingale":
        return DriverConfig("martingale", m=m, rho=float(doc.get("rho", 1.0)))
    if kind == "poisson":
        powers = doc.get("mark_powers", [1.0] * k)
        if len(powers) != k:
            raise ConfigError("mark_powers must list one exponent per slot")
        return DriverConfig("poisson", m=m,
                            intensity=exponential_measure(float(doc.get("total_mass", 5.0))),
                            mark_factors=tuple(power_mark(a) for a in powers))
    if kind == "wiener":
        return DriverConfig("wiener", m=m)
    raise ConfigError(f"driver kind must be wiener, martingale or poisson, got {kind!r}")


def _load_config(path: str, allowed) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(doc, allowed, "config")
    for key in ("interval", "kernel", "system"):
        if key not in doc:
            raise ConfigError(f"config is missing the required key {key!r}")
    return doc


def _interval_from_config(doc) -> Interval:
    pair = doc.get("interval")
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigError("interval must be a [start, end] pair")
    return Interval(float(pair[0]), float(pair[1]))


def cmd_basis(args) -> int:
    if args.system not in _SYSTEM_KINDS:
        print(f"error: unknown system {args.system!r} (choose from {_SYSTEM_KINDS})",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        interval = Interval(args.interval[0], args.interval[1])
        system = OrthonormalSystem(args.system, interval, bessel_order=args.bessel_order)
        gram = gram_matrix(system, args.count)
    except (ValueError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    deviation = float(np.max(np.abs(gram - np.eye(args.count))))
    tol = _GRAM_TOLERANCES[args.system]
    if args.out:
        np.savetxt(args.out, gram, delimiter=",", fmt="%.17g")
    print(f"system={args.system} count={args.count} max_gram_deviation={deviation:.3e} "
          f"tolerance={tol:.0e}")
    return EXIT_OK if deviation < tol else EXIT_FAIL


def cmd_coeffs(args) -> int:
    doc = _load_config(args.config, {"interval", "kernel", "system", "box", "weighted", "out"})
    interval = _interval_from_config(doc)
    kern = _kernel_from_config(doc["kernel"], interval)
    system = _system_from_config(doc["system"], interval)
    box = doc.get("box")
    if not isinstance(box, list) or len(box) != kern.multiplicity:
        raise ConfigError("box must list one truncation order per kernel factor")
    tensor = coeff_tensor(kern, system, tuple(int(p) for p in box),
                          weighted=bool(doc.get("weighted", False)))
    out = doc.get("out", "coeffs")
    tensor_to_csv(tensor, f"{out}.csv")
    tensor_to_json(tensor, f"{out}.json")
    print(f"wrote {out}.csv and {out}.json "
          f"(box {'x'.join(str(p + 1) for p in tensor.box)} entries, "
          f"quadrature error estimate {tensor.quad_error:.2e})")
    return EXIT_OK


def cmd_converge(args) -> int:
    doc = _load_config(args.config, {"interval", "kernel", "system", "driver", "combo",
                                     "boxes", "n_steps", "trials", "seed", "correction",
                                     "weighted", "richardson", "out"})
    if "seed" not in doc:
        raise ConfigError("a seed is required: all randomness must be reproducible")
    interval = _interval_from_config(doc)
    kern = _kernel_from_config(doc["kernel"], interval)
    system = _system_from_config(doc["system"], interval)
    driver = _driver_from_config(doc.get("driver", {"kind": "wiener"}), kern.multiplicity)
    spec = ExperimentSpec(
        kernel=kern, system=system,
        combo=tuple(doc.get("combo", ())),
        boxes=tuple(tuple(b) for b in doc.get("boxes", ())),
        driver=driver,
        n_steps=doc.get("n_steps", 1024),
        trials=doc.get("trials", 1000),
        seed=doc["seed"],
        correction=doc.get("correction", "auto"),
        weighted=bool(doc.get("weighted", False)),
        richardson=bool(doc.get("richardson", False)))
    report = run_experiment(spec)
    out = doc.get("out", "converge")
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


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
