"""Top-level command line: simulate a multi-GPU sort from the shell.

Examples::

    python -m repro sort --system dgx-a100 --keys 2e9 --algorithm p2p
    python -m repro sort --system ibm-ac922 --gpus 0,1 --algorithm het \\
        --distribution reverse-sorted --trace /tmp/run.json
    python -m repro systems
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import breakdown_of, verify_sort, write_chrome_trace
from repro.data import DISTRIBUTIONS, generate, key_dtype
from repro.hw import system_by_name
from repro.runtime import Machine
from repro.sort import het_sort, p2p_sort, rp_sort

#: Physical keys simulated per run; --keys scales them logically.
PHYSICAL_KEYS = 500_000

_ALGORITHMS = {"p2p": p2p_sort, "het": het_sort, "rp": rp_sort}

_SYSTEMS = ("ibm-ac922", "delta-d22x", "dgx-a100")


def _parse_gpu_ids(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"GPU ids must be comma-separated integers, got {text!r}")


def cmd_sort(args) -> int:
    spec = system_by_name(args.system)
    logical_keys = float(args.keys)
    physical = min(PHYSICAL_KEYS, int(logical_keys))
    scale = max(1.0, logical_keys / physical)
    machine = Machine(spec, scale=scale)
    dtype = key_dtype(args.dtype)
    keys = generate(physical, args.distribution, dtype, seed=args.seed)

    sorter = _ALGORITHMS[args.algorithm]
    gpu_ids = args.gpus
    if gpu_ids is None and args.algorithm == "p2p":
        count = 1
        while count * 2 <= spec.num_gpus:
            count *= 2
        gpu_ids = spec.preferred_gpu_set(count)

    result = sorter(machine, keys, gpu_ids=gpu_ids)
    verify_sort(keys, result.output)

    print(f"{result.algorithm} sort on {spec.display_name}, "
          f"GPUs {result.gpu_ids}")
    print(f"  {result.logical_keys / 1e9:.2f}B {args.dtype} keys "
          f"({args.distribution}) in {result.duration:.3f} s "
          f"({result.keys_per_second / 1e9:.2f}B keys/s)")
    for phase, seconds, fraction in breakdown_of(result).rows():
        print(f"  {phase:12s} {seconds:8.3f} s  ({fraction:5.1%})")
    if result.p2p_bytes:
        print(f"  P2P volume   {result.p2p_bytes / 1e9:8.1f} GB")
    if args.trace:
        path = write_chrome_trace(machine.trace, args.trace)
        print(f"  timeline written to {path} (open in chrome://tracing)")
    return 0


def cmd_recommend(args) -> int:
    from repro.sort import recommend

    spec = system_by_name(args.system)
    recommendation = recommend(spec, float(args.keys),
                               numa_local_input=args.numa_local_input)
    print(f"best plan for {float(args.keys) / 1e9:.2f}B keys on "
          f"{spec.display_name}:")
    print(f"  {recommendation.best.describe()}")
    print("all candidates:")
    for line in recommendation.table().splitlines():
        print(f"  {line}")
    return 0


def cmd_systems(_args) -> int:
    for name in _SYSTEMS:
        spec = system_by_name(name)
        gpus = spec.gpu_specs[spec.gpu_names[0]].model
        print(f"{name:12s} {spec.display_name}: {spec.num_gpus}x {gpus}, "
              f"{spec.cpu.model}")
    return 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Simulated multi-GPU sorting on the paper's platforms.")
    commands = parser.add_subparsers(dest="command", required=True)

    sort_parser = commands.add_parser(
        "sort", help="run one simulated sort and print its breakdown")
    sort_parser.add_argument("--system", choices=_SYSTEMS,
                             default="dgx-a100")
    sort_parser.add_argument("--algorithm", choices=sorted(_ALGORITHMS),
                             default="p2p")
    sort_parser.add_argument("--keys", default="2e9",
                             help="logical key count (default 2e9)")
    sort_parser.add_argument("--dtype", default="int",
                             help="int, float, long, double or a numpy "
                                  "dtype name")
    sort_parser.add_argument("--distribution",
                             choices=sorted(DISTRIBUTIONS),
                             default="uniform")
    sort_parser.add_argument("--gpus", type=_parse_gpu_ids, default=None,
                             help="comma-separated GPU ids, e.g. 0,2,4,6")
    sort_parser.add_argument("--seed", type=int, default=42)
    sort_parser.add_argument("--trace", default=None,
                             help="write a Chrome trace JSON here")
    sort_parser.set_defaults(handler=cmd_sort)

    systems_parser = commands.add_parser(
        "systems", help="list the simulated platforms")
    systems_parser.set_defaults(handler=cmd_systems)

    rec_parser = commands.add_parser(
        "recommend", help="pick the best algorithm for a workload")
    rec_parser.add_argument("--system", choices=_SYSTEMS,
                            default="dgx-a100")
    rec_parser.add_argument("--keys", default="2e9")
    rec_parser.add_argument("--numa-local-input", action="store_true",
                            help="input is already partitioned across "
                                 "NUMA nodes")
    rec_parser.set_defaults(handler=cmd_recommend)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
