"""Section 6: choosing the CPU sort baseline."""

from conftest import once

from repro.bench.experiments.cpu_baselines import (
    PAPER_SIMD_CROSSOVER_BILLIONS,
    best_primitive,
    cpu_primitive_duration,
    run_cpu_baselines,
)


def test_sec6_paradis_beats_gnu_parallel_tbb_and_std_par(benchmark):
    def durations():
        return {
            system: {p: cpu_primitive_duration(system, p, 4.0)
                     for p in ("paradis", "gnu_parallel", "tbb", "std_par")}
            for system in ("ibm-ac922", "delta-d22x", "dgx-a100")
        }

    measured = once(benchmark, durations)
    for table in run_cpu_baselines():
        table.print()
    for system, values in measured.items():
        for library in ("gnu_parallel", "tbb", "std_par"):
            assert values["paradis"] < values[library], (system, library)


def test_sec6_simd_crossovers(benchmark):
    def picks():
        return {
            "dgx_small": best_primitive("dgx-a100", 1.0),
            "dgx_large": best_primitive("dgx-a100", 8.0),
            "delta_small": best_primitive("delta-d22x", 4.0),
            "delta_large": best_primitive("delta-d22x", 16.0),
            "ac922": best_primitive("ibm-ac922", 4.0),
        }

    chosen = once(benchmark, picks)
    # SIMD LSB wins below the crossover, PARADIS above (Section 6);
    # the AC922 cannot run the SIMD sort at all.
    assert chosen["dgx_small"] == "simd_lsb"
    assert chosen["dgx_large"] == "paradis"
    assert chosen["delta_small"] == "simd_lsb"
    assert chosen["delta_large"] == "paradis"
    assert chosen["ac922"] == "paradis"
    benchmark.extra_info["crossovers"] = PAPER_SIMD_CROSSOVER_BILLIONS
