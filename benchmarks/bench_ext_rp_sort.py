"""Extension (Section 7): the radix-partitioning multi-GPU sort.

Quantifies the paper's closing proposal: partition once, exchange once
all-to-all, sort locally.  Expected shape: a clear win in interconnect
volume everywhere; an end-to-end win on NVSwitch (DGX A100); no win on
the X-Bus-bound AC922.
"""

from conftest import once

from repro.bench.experiments.sort_scaling import PHYSICAL_KEYS, make_keys
from repro.bench.report import Table
from repro.hw import system_by_name
from repro.runtime import Machine
from repro.sort import p2p_sort, rp_sort


def _compare(system: str, gpus, billions: float = 2.0):
    data = make_keys(n=PHYSICAL_KEYS)
    scale = billions * 1e9 / PHYSICAL_KEYS
    spec = system_by_name(system)
    ids = spec.preferred_gpu_set(gpus)
    rp = rp_sort(Machine(system_by_name(system), scale=scale), data,
                 gpu_ids=ids)
    pp = p2p_sort(Machine(system_by_name(system), scale=scale), data,
                  gpu_ids=ids)
    return rp, pp


def test_ext_rp_sort_vs_p2p_sort(benchmark):
    def measure():
        return {
            ("dgx-a100", 8): _compare("dgx-a100", 8),
            ("dgx-a100", 4): _compare("dgx-a100", 4),
            ("ibm-ac922", 4): _compare("ibm-ac922", 4),
        }

    results = once(benchmark, measure)
    table = Table(["system", "GPUs", "RP sort [s]", "P2P sort [s]",
                   "RP volume [GB]", "P2P volume [GB]"],
                  title="Extension: single-exchange RP sort vs merge-based "
                        "P2P sort, 2B keys")
    for (system, gpus), (rp, pp) in results.items():
        table.add_row(system, gpus, f"{rp.duration:.3f}",
                      f"{pp.duration:.3f}", f"{rp.p2p_bytes / 1e9:.1f}",
                      f"{pp.p2p_bytes / 1e9:.1f}")
    table.print()

    rp8, pp8 = results[("dgx-a100", 8)]
    # One crossing per key: far less volume than the merge stages.
    assert rp8.p2p_bytes < 0.5 * pp8.p2p_bytes
    # End-to-end win on NVSwitch.
    assert rp8.duration < pp8.duration
    # No win where the exchange crosses the X-Bus.
    rp_x, pp_x = results[("ibm-ac922", 4)]
    assert rp_x.duration > 0.9 * pp_x.duration
    benchmark.extra_info["dgx8_speedup"] = pp8.duration / rp8.duration
