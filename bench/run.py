"""Run one cloudsr benchmark workload and print its metrics.

    python3 bench/run.py --workload sphere-2k --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines above it print every metric with its unit, the output sha256 and the
environment; the full record is also written to
``.bench_out/results/<workload>-seed<seed>-trace<t>.json``.
See ``bench/METRICS.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# BLAS and OpenMP pools are pinned to one thread before numpy loads, so the
# figures measure the program and not how the scheduler shares the cores.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "cloudsr" / "__init__.py").is_file():
        print(f"error: no cloudsr sources under {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))

    import harness
    from tracing import LAYER_UNITS

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    units = LAYER_UNITS if args.trace else harness.END_TO_END_UNITS
    work = OUT / f"work-{os.getpid()}"
    try:
        record = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    metrics = record["metrics"]
    for key in units:
        if key in metrics:
            print(f"{key:36s} {metrics[key]:.6g} {units[key]}")
    print(f"{record['frames']} timed frames, {record['attempted']} attempted, "
          f"{record['failed']} failed {record['failures']}")
    print(f"output_sha256 {record['output_sha256']}")
    print(f"speed_scale {record['speed_scale']:.4f} (reference kernel "
          f"{record['reference_s']:.4f} s); wall {json.dumps(record['wall'])}")
    print(f"environment {json.dumps(record['environment'])}")
    complete = all(key in metrics for key in units)
    print(json.dumps({
        "correct": record["correct"] and complete,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }))
    return 0 if record["correct"] and complete else 1


if __name__ == "__main__":
    sys.exit(main())
