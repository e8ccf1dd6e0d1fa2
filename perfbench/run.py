"""Benchmark of the pshmodels verification engine, run from outside as a
user runs it.

    python3 perfbench/run.py --workload verify-closed --seed 1 --seconds 30 --trace 0

Workloads: verify-closed, verify-smooth, slice-grid (see README.md). Each
run starts fresh interpreters only: four that time set-up alone, one
worker that times set-up and measures the workload, and three more that
time set-up alone. It prints a summary and,
as its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import catalog
from workloads import BENCH_DIR, ROOT, WORKLOADS

WORKER = BENCH_DIR / "worker.py"
SRC = ROOT / "src"
# set-up probes before and after the worker, so that their minimum is taken
# over the whole run rather than one spell of the host
SETUP_PROBES = (4, 3)
IMPORTTIME_PROBES = 3
PROBE_TIMEOUT_S = 60
# every run must end within 180 s; the worker overruns its seconds by at
# most one pass plus its checks
WORKER_SLACK_S = 60


def _python(args: list, timeout: float) -> subprocess.CompletedProcess:
    """Run the interpreter to completion (killed and reaped on timeout)."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=timeout, check=False)


def _worker(args: list, timeout: float) -> dict:
    proc = _python([str(WORKER), *args], timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_import_s() -> float:
    """Time ``import pshmodels`` spends importing SciPy: the cumulative
    times of the outermost scipy modules in ``python -X importtime``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pshmodels"
    proc = _python(["-X", "importtime", "-c", code], PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed:\n{proc.stderr.strip()}")
    return outermost_import_s(proc.stderr, "scipy")


def outermost_import_s(log: str, package: str) -> float:
    """Sum of cumulative import times of package's modules not imported
    from inside another of its modules.

    Lines read "import time: self [us] | cumulative | <indent>module", in
    post-order, the indent giving the nesting depth; read backwards, each
    module comes after its ancestors.
    """
    total_us = 0
    ancestors: list = []
    for line in reversed(log.splitlines()):
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 \
                or not fields[1].strip().isdigit():
            continue
        name = fields[2].lstrip(" ")
        depth = (len(fields[2]) - len(name) - 1) // 2
        del ancestors[depth:]
        ours = name == package or name.startswith(package + ".")
        if ours and not any(ancestors):
            total_us += int(fields[1])
        ancestors.extend([False] * (depth - len(ancestors)))
        ancestors.append(ours)
    return total_us / 1e6


def _commit() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              text=True, capture_output=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "pshmodels" / "cli.py").is_file():
        print(f"error: no pshmodels sources under {SRC}", file=sys.stderr)
        return 2

    try:
        def probes(count: int) -> list:
            return [_worker(["setup", "--workload", args.workload],
                            PROBE_TIMEOUT_S) for _ in range(count)]
        before = probes(SETUP_PROBES[0])
        result = _worker(["run", "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace)],
                         args.seconds + WORKER_SLACK_S)
        # set-up times are minima over the fresh interpreters, as wall_s
        # keeps fastest times: load from other tenants only adds time
        setups = before + [result["setup"]] + probes(SETUP_PROBES[1])
        if args.trace:
            values = dict(result["layers"])
            values["setup.import_s"] = min(s["import_s"] for s in setups)
            values["setup.scipy_import_s"] = min(
                scipy_import_s() for _ in range(IMPORTTIME_PROBES))
        else:
            values = {"wall_s": result["wall_s"],
                      "setup_s": min(s["setup_s"] for s in setups),
                      "peak_rss_mb": result["peak_rss_mb"]}
        units = catalog.units("per_layer" if args.trace else "end_to_end")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    for hook in result.get("missing_hooks", []):
        print(f"trace: hook not found, its metrics read 0: {hook}",
              file=sys.stderr)
    for name in result.get("unstable", []):
        print(f"trace: count {name} differs between traced passes",
              file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    env = {"cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
           "machine": platform.machine(),
           "python": platform.python_version(), **result["versions"],
           "commit": _commit(), "workload": args.workload, "seed": args.seed}
    print("env " + json.dumps(env, sort_keys=True))
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"fail_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} commands failed)")
    print(json.dumps({
        "correct": failed == 0 and not result.get("unstable"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
