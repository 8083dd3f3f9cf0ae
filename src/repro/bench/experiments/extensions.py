"""Extensions beyond the paper: Section 7 proposals, implemented.

* multi-hop P2P routing (after Paul et al. [55]),
* the single-exchange radix/range-partitioning sort (RP sort),
* key-value record sorting.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.bench.experiments.sort_scaling import PHYSICAL_KEYS, make_keys
from repro.bench.report import Table
from repro.hw import delta_d22x, ibm_ac922, system_by_name
from repro.runtime import Machine
from repro.runtime.memcpy import copy_async, span
from repro.runtime.multihop import copy_multihop
from repro.sort import HetConfig, P2PConfig, het_sort, p2p_sort, rp_sort


def run_multihop() -> Table:
    """Multi-hop routing on the DELTA: transfer rates and sort impact."""
    def transfer_rate(use_relay: bool) -> float:
        machine = Machine(delta_d22x(), scale=1000)
        src = machine.device(0).alloc(1_000_000, np.int32)
        dst = machine.device(3).alloc(1_000_000, np.int32)

        def run():
            if use_relay:
                yield from copy_multihop(machine, span(dst), span(src),
                                         relays=[2])
            else:
                yield from copy_async(machine, span(dst), span(src))

        machine.run(run())
        return 4e9 / machine.now / 1e9

    data = make_keys(n=PHYSICAL_KEYS)
    scale = 2e9 / PHYSICAL_KEYS

    def sort_seconds(multihop: bool) -> float:
        machine = Machine(delta_d22x(), scale=scale)
        return p2p_sort(machine, data, gpu_ids=(0, 1, 2, 3),
                        config=P2PConfig(multihop=multihop)).duration

    table = Table(["metric", "host-staged", "GPU-relayed", "gain"],
                  title="Extension (Section 7): multi-hop P2P routing "
                        "on the DELTA D22x")
    staged_rate, relayed_rate = transfer_rate(False), transfer_rate(True)
    table.add_row("GPU0 -> GPU3 transfer [GB/s]", f"{staged_rate:.1f}",
                  f"{relayed_rate:.1f}",
                  f"{relayed_rate / staged_rate:.1f}x")
    staged_sort, relayed_sort = sort_seconds(False), sort_seconds(True)
    table.add_row("4-GPU P2P sort, 2B keys [s]", f"{staged_sort:.3f}",
                  f"{relayed_sort:.3f}",
                  f"{staged_sort / relayed_sort:.2f}x")
    return table


def run_rp_sort() -> Table:
    """RP sort versus the merge-based P2P sort on all three systems."""
    data = make_keys(n=PHYSICAL_KEYS)
    scale = 2e9 / PHYSICAL_KEYS
    table = Table(["system", "GPUs", "RP sort [s]", "P2P sort [s]",
                   "RP volume [GB]", "P2P volume [GB]"],
                  title="Extension (Section 7): single-exchange RP sort, "
                        "2B keys")
    for system, gpus in (("dgx-a100", 8), ("dgx-a100", 4),
                         ("delta-d22x", 4), ("ibm-ac922", 4)):
        ids = system_by_name(system).preferred_gpu_set(gpus)
        rp = rp_sort(Machine(system_by_name(system), scale=scale), data,
                     gpu_ids=ids)
        pp = p2p_sort(Machine(system_by_name(system), scale=scale), data,
                      gpu_ids=ids)
        table.add_row(system, gpus, f"{rp.duration:.3f}",
                      f"{pp.duration:.3f}", f"{rp.p2p_bytes / 1e9:.1f}",
                      f"{pp.p2p_bytes / 1e9:.1f}")
    return table


def run_key_value() -> Table:
    """Payload cost of key-value record sorting on the DGX A100."""
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 1 << 30, size=PHYSICAL_KEYS).astype(np.int32)
    values = np.arange(PHYSICAL_KEYS, dtype=np.int64)
    scale = 2e9 / PHYSICAL_KEYS
    table = Table(["algorithm", "keys only [s]", "key+8B value [s]",
                   "slowdown"],
                  title="Extension: key-value records, 2B records on the "
                        "DGX A100 (8 GPUs)")
    for name, sorter in (("p2p", p2p_sort), ("het", het_sort),
                         ("rp", rp_sort)):
        plain = sorter(Machine(system_by_name("dgx-a100"), scale=scale),
                       keys).duration
        loaded = sorter(Machine(system_by_name("dgx-a100"), scale=scale),
                        keys, values=values).duration
        table.add_row(name, f"{plain:.3f}", f"{loaded:.3f}",
                      f"{loaded / plain:.2f}x")
    return table


def run_numa_placement() -> Table:
    """NUMA-aware input placement on the AC922 (Section 7)."""
    data = make_keys(n=PHYSICAL_KEYS)
    scale = 2e9 / PHYSICAL_KEYS

    def run(**cfg) -> float:
        machine = Machine(ibm_ac922(), scale=scale)
        return p2p_sort(machine, data, gpu_ids=(0, 1, 2, 3),
                        config=P2PConfig(**cfg)).duration

    table = Table(["input placement", "4-GPU P2P sort [s]"],
                  title="Extension: NUMA-aware input placement, "
                        "IBM AC922, 2B keys")
    table.add_row("node0 (paper)", f"{run():.3f}")
    table.add_row("numa-local + shuffle",
                  f"{run(input_placement='numa-local'):.3f}")
    table.add_row("numa-local (pre-placed)",
                  f"{run(input_placement='numa-local', charge_redistribution=False):.3f}")
    return table


def run_gpu_merged_groups() -> Table:
    """P2P GPU merge per chunk group for out-of-core data (Section 7)."""
    data = make_keys(n=PHYSICAL_KEYS)
    table = Table(["keys [1e9]", "CPU-merged runs [s]",
                   "GPU-merged groups [s]", "speedup"],
                  title="Extension: P2P GPU merge per chunk group, "
                        "IBM AC922, 2 GPUs, out-of-core")
    for billions in (16.0, 32.0, 48.0):
        durations = []
        for gpu_merge in (False, True):
            machine = Machine(ibm_ac922(),
                              scale=billions * 1e9 / PHYSICAL_KEYS)
            durations.append(het_sort(
                machine, data, gpu_ids=(0, 1),
                config=HetConfig(gpu_merge_groups=gpu_merge)).duration)
        table.add_row(f"{billions:g}", f"{durations[0]:.2f}",
                      f"{durations[1]:.2f}",
                      f"{durations[0] / durations[1]:.2f}x")
    return table


def run_all_extensions() -> List[Table]:
    """All extension tables."""
    return [run_multihop(), run_rp_sort(), run_key_value(),
            run_numa_placement(), run_gpu_merged_groups()]
