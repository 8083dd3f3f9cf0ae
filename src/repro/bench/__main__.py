"""Command line for the benchmark suite: ``python -m repro.bench``."""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.harness import EXPERIMENTS, experiment_by_id, run_all


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures from the "
                    "calibrated simulation.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids to run (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write all result tables as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="simcore/resilience/service/cluster only: run "
                             "the reduced scenario sweep (simcore and "
                             "cluster then skip their JSON records; "
                             "resilience and service always write their "
                             "own)")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="simcore/service/cluster only: write the "
                             "benchmark record to PATH (the CI smokes diff "
                             "it against the committed record)")
    parser.add_argument("--profile", action="store_true",
                        help="simcore/cluster only: attach the engine "
                             "profiler and emit a per-phase cost breakdown "
                             "(fill rounds, calendar rebuilds, heap ops, "
                             "dispatch) into the BENCH record")
    args = parser.parse_args(argv)
    if args.quick:
        from repro.bench.experiments import (cluster, resilience, service,
                                             simcore)
        cluster.QUICK = True
        simcore.QUICK = True
        resilience.QUICK = True
        service.QUICK = True
    if args.profile:
        from repro.bench.experiments import cluster, simcore
        cluster.PROFILE = True
        simcore.PROFILE = True
    if args.record:
        from repro.bench.experiments import cluster, service, simcore
        cluster.RECORD_PATH = args.record
        simcore.RECORD_PATH = args.record
        service.RECORD_PATH = args.record
    if args.list:
        for experiment in EXPERIMENTS:
            print(f"{experiment.id:22s} {experiment.title}")
        return 0
    if args.json:
        chosen = (EXPERIMENTS if not args.experiments
                  else [experiment_by_id(i) for i in args.experiments])
        record = {}
        for experiment in chosen:
            print(f"=== {experiment.title} ===")
            tables = experiment.run()
            for table in tables:
                table.print()
            record[experiment.id] = [
                {"title": table.title, "headers": table.headers,
                 "rows": table.rows} for table in tables]
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1)
        print(f"JSON record written to {args.json}")
        return 0
    run_all(args.experiments or None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
