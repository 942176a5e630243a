"""One benchmark run inside a fresh interpreter; started by run.py.

Prints one JSON line: the run's setup time, metrics, operation counts,
errors and provenance.  With --setup-only it stops after the set-up.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# single-threaded BLAS/OpenMP, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ORACLE_REALIZATIONS = 16  # first realizations of round 0 fed to oracle.iterated_sum

# spans that must record calls on each workload; quadrature.offgrid is left
# out on purpose, because the spectral integration matrix is meant to remove it
REQUIRED_SPANS = {
    "wiener_mc": ("cli.main", "drivers.sample_wiener"),
    "martingale_mc": ("drivers.sample_gaussian_martingale",),
    "poisson_prelimit_mc": ("cli.main", "drivers.sample_poisson", "drivers.interval_measures",
                            "expansions.poisson_variables", "oracle.slot_increments",
                            "oracle.gk_correction_tensor"),
    "tensor_build": ("cli.main", "kernel.coeff_tensor", "quadrature.adaptive",
                     "basis.eval_table"),
}
MC_SPANS = ("harness.run_experiment", "kernel.coeff_tensor", "kernel.kernel_norm_sq",
            "quadrature.adaptive", "basis.eval_table", "expansions.expand",
            "oracle.iterated_sum")


# Host speed on a shared machine drifts by up to ~40 % over tens of seconds
# (wall time equals CPU time, so it is not preemption).  Every operation is
# therefore bracketed by a fixed reference loop that does not touch
# stochexpand, and its time is rescaled to a host on which that loop takes
# REF_SECONDS: seconds at nominal host speed.
REF_SECONDS = 0.03


def reference_seconds() -> float:
    """Time of a fixed loop built from the operations the workloads spend
    their time in (normal draws, Legendre tables, cumsum, small matvecs and
    einsums, scattered adds, interpreted Python), with no stochexpand code."""
    import numpy as np
    from scipy import special
    rng = np.random.default_rng(20180118)
    phi = rng.standard_normal((8, 4096))
    u = np.linspace(-1.0, 1.0, 4096)
    bins = rng.integers(0, 4096, 64)
    t0 = time.perf_counter()
    for i in range(220):
        y = np.cumsum(rng.standard_normal(4096))
        table = special.eval_legendre(i % 8, u)
        np.add.at(y, bins, 1.0)
        np.einsum("ab,a,b->", phi[:, :8], phi[:, 0], phi[0, :8])
        (phi @ (y * table)).sum()
        s = 0.0
        for j in range(100):
            s += j * 0.5
    return time.perf_counter() - t0


class Round:
    def __init__(self, index, seconds, raw_seconds, ops):
        self.index, self.seconds, self.raw_seconds, self.ops = index, seconds, raw_seconds, ops


def run_rounds(wl, indices, tracer=None, budget=None) -> list[Round]:
    """Time rounds one after another.  With a budget, keep starting rounds
    while one more is expected to fit in it; always run at least one."""
    from workloads import call
    rounds, begin = [], time.perf_counter()
    ref = reference_seconds()
    for r in indices:
        inputs = wl.prepare(r)
        if tracer is not None:
            tracer.run = f"round{r}"
        results, seconds, raw_seconds = [], 0.0, 0.0
        for fn in wl.calls(inputs):
            t0 = time.perf_counter()
            results.append(call(fn))
            raw = time.perf_counter() - t0
            after = reference_seconds()
            seconds += raw * REF_SECONDS / ((ref + after) / 2.0)
            raw_seconds += raw
            ref = after
        rounds.append(Round(r, seconds, raw_seconds, wl.collect(inputs, results)))
        if budget is not None:
            typical = statistics.median(x.raw_seconds for x in rounds)
            if time.perf_counter() - begin + typical > budget:
                break
    return rounds


def provenance() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True, help="directory for the run's spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads  # imports numpy, scipy and stochexpand (part of set-up)
    wl = workloads.make(args.workload, args.seed, args.workdir)
    wl.prepare(0)
    raw_setup_s = time.perf_counter() - _STARTED
    setup_s = raw_setup_s * REF_SECONDS / reference_seconds()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    host = {}
    if not args.trace:
        rounds = run_rounds(wl, range(10**9), budget=args.seconds)
        seconds = [x.seconds for x in rounds]
        host["raw_wall_s"] = statistics.median(x.raw_seconds for x in rounds)
        metrics = {"wall_s": statistics.median(seconds),
                   "trials_per_s": wl.work_per_round * len(rounds) / sum(seconds),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        ops = [op for x in rounds for op in x.ops]
    else:
        import tracer as tracing
        plain = run_rounds(wl, range(10**9), budget=args.seconds / 2)
        tr = tracing.Tracer()
        with tr.installed():
            traced = run_rounds(wl, [x.index for x in plain], tracer=tr)
            tr.run = tracing.ORACLE_RUN
            for oracle_args in wl.oracle_inputs(ORACLE_REALIZATIONS):
                workloads.oracle.iterated_sum(*oracle_args)
        # tracing must not change any output
        for a, b in zip(plain, traced):
            for pa, pb in zip(a.ops, b.ops):
                if pa.digest != pb.digest:
                    pb.errors.append(f"{pb.label}: traced output differs from the untraced one")
        calls = collections.Counter(s.name for s in tr.spans)
        required = REQUIRED_SPANS[args.workload]
        if args.workload != "tensor_build":
            required += MC_SPANS
        silent = [name for name in required if not calls[name]]
        if silent:
            raise SystemExit(f"error: traced spans recorded no calls: {silent}")
        tr.write(os.path.join(args.out, f"{args.workload}-spans.jsonl.gz"))
        overhead = (statistics.median(x.seconds for x in traced)
                    / statistics.median(x.seconds for x in plain) - 1.0)
        metrics = tracing.layer_metrics(tr.spans, overhead)
        ops = [op for x in plain + traced for op in x.ops]

    wl.check(ops)
    ops += wl.extra_ops(ops)
    failed = [op for op in ops if op.errors]
    if not args.trace:
        metrics["ops_ok_frac"] = (len(ops) - len(failed)) / len(ops)
    print(json.dumps({
        "setup_s": setup_s, "raw_setup_s": raw_setup_s, "host": host,
        "metrics": metrics, "attempted": len(ops), "failed": len(failed),
        "errors": [f"{op.label}: {err}" for op in failed for err in op.errors][:20],
        "provenance": provenance(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
