"""Benchmark worker: one fresh interpreter per run of a workload.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace T

Both modes first time ``import pshmodels`` and the workload's model builds.
``setup`` prints those times and exits. ``run`` then drives the CLI through
``pshmodels.cli.main(argv)`` in a closed loop (one command after another,
single-threaded) for S seconds, checks every output and prints one JSON
line. With ``--trace 1`` it spends half the time untraced and half traced
and reports per-layer metrics instead of end-to-end ones.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from workloads import ROOT, spec_path, workload_specs

SRC = ROOT / "src"


def timed_setup(workload: str) -> dict:
    """Import the package from this checkout and build the workload's
    models, timing both from a fresh interpreter."""
    texts = [spec_path(s).read_text(encoding="utf-8")
             for s in workload_specs(workload)]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import pshmodels
    imported = time.perf_counter()
    for text in texts:
        pshmodels.model_from_spec(json.loads(text))
    built = time.perf_counter()
    if not pshmodels.__file__.startswith(str(SRC)):
        raise SystemExit(f"pshmodels was imported from {pshmodels.__file__}, "
                         f"not from {SRC}")
    return {"import_s": imported - start, "setup_s": built - start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    setup = timed_setup(args.workload)
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0
    # numpy and the benchmark's own modules load after set-up is timed
    from session import run_workload
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    result["setup"] = setup
    result["versions"] = {m: sys.modules[m].__version__
                          for m in ("numpy", "scipy") if m in sys.modules}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
