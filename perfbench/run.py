"""Run one stochexpand benchmark workload and print its metrics.

Usage, from the root of a stochexpand source tree:

    python3 perfbench/run.py --workload wiener_mc --seed 1 --seconds 24 --trace 0

The workloads, metrics and units are the ones in BENCHMARK.json.  Each run
happens in fresh single-threaded interpreters (worker.py) importing the
tree's own ``src/``.  With ``--trace 0`` the last line of output holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The line before it records provenance.  A copy of both, and
the spans of a traced run, are kept under ``.perfbench/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4  # extra fresh interpreters that only set up, for a median setup_s
DEADLINE_S = 170.0  # the whole run, set-up probes included


def fail(message: str, code: int = 1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_worker(args, root: Path, workdir: Path, outdir: Path, deadline: float,
               setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--out", str(outdir)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the run finished")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_provenance(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "stochexpand" / "__init__.py").is_file():
        fail("run from the root of a stochexpand source tree (src/stochexpand is missing)", 2)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    base = root / ".perfbench"
    outdir = base / "results"
    outdir.mkdir(parents=True, exist_ok=True)
    workdir = base / f"work-{args.workload}-{os.getpid()}"
    try:
        probes = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe_dir = workdir / f"probe{i}"
                probe_dir.mkdir(parents=True)
                probes.append(run_worker(args, root, probe_dir, outdir, deadline,
                                         setup_only=True))
        (workdir / "main").mkdir(parents=True)
        result = run_worker(args, root, workdir / "main", outdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, host = dict(result["metrics"]), result["host"]
    if not args.trace:
        probes.append(result)
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        host["raw_setup_s"] = statistics.median(p["raw_setup_s"] for p in probes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not produced: {missing}")
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}
    prov = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **result["provenance"], **source_provenance(root),
            "unscaled": host}
    for err in result["errors"]:
        print(f"perfbench: failed operation: {err}", file=sys.stderr)
    (outdir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "result": line, "errors": result["errors"]}, indent=1))
    print("provenance " + json.dumps(prov))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
