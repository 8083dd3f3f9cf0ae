"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload p2p-dgx-2b --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer table of a traced run (see
``perfbench/bench.py``).  Every output is checked against ``np.sort`` of
its input.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from the checkout's ``src/``; without it the
command fails without printing a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        parser.error(f"no program source under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    # Interpreter start-up is not measured; module import is, and is
    # reported as the per-layer import_s rather than inside setup_s.
    start = perf_counter()
    from perfbench import bench
    from perfbench.workloads import WORKLOADS
    import_s = perf_counter() - start

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    if args.trace:
        report = bench.traced(cls(), args.seed, import_s)
        metrics = report.metrics(bench.PER_LAYER)
    else:
        report = bench.measure(cls(), args.seed, args.seconds)
        metrics = report.metrics(bench.END_TO_END)
    for name, samples in report.samples.items():
        print(f"# {name} samples: "
              + " ".join(f"{value:.4f}" for value in samples))
    for problem in report.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": report.correct,
                      "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
