"""Throughput benchmark of the functional kernel layer.

Like ``simcore``, this experiment measures the repository itself rather
than a paper figure: the *host wall-clock* cost of the from-scratch
functional kernels of :mod:`repro.gpuprims` and :mod:`repro.cpuprims`
(the simulated virtual time is independent of them), and of one whole
simulated sort.  Each kernel scenario times the vectorized kernel
against its retained element-wise reference — the seed-tree
implementation that doubles as the property-test oracle — on the same
input:

* **scatter** — :func:`stable_counting_permutation` (one stable C radix
  argsort over the digit array) versus the per-bucket
  ``flatnonzero`` gather of the seed.
* **paradis** — the one-round vectorized PARADIS level versus the
  element-at-a-time speculation/repair loop.
* **lsb** — the pooled double-buffer LSB radix sort versus the same
  pass structure composed from the reference scatter with per-pass
  allocations.
* **merge** — the pooled binary-merge-tree multiway merge versus the
  loser tree.
* **mergepath** — one Merge Path merge of two sorted half-size int32
  runs (:func:`merge_sorted`, linear run merge per segment); its
  baseline is the rank merge's wall-clock (two binary searches per
  element), frozen from the seed tree because that merge now lives in
  the tests as the oracle, not in the source.
* **e2e** — a complete 8-GPU P2P sort on the DGX A100: the host
  wall-clock of the whole simulated pipeline, whose kernels take their
  functional effect from NumPy (:mod:`repro.gpuprims.functional`), not
  from the kernels above.  Its baseline is the seed tree's wall-clock,
  measured on the same host (re-measure when porting to other
  hardware), when the pipeline still ran the from-scratch kernels; the
  row's speedup is therefore not a kernel speedup.

Every scenario checks its output outside the timed region (against the
reference, or ``np.sort`` of the input) and reports the outcome in a
``check`` column; a failed check aborts the suite.  Results are printed
as a table and, for the full suite, written to ``BENCH_kernels.json``
with before/after throughput per kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bench.report import Table, write_bench_record
from repro.data import generate
from repro.errors import ReproError
from repro.hw import dgx_a100
from repro.runtime import Machine

#: Wall-clock seconds of scenarios whose baseline no longer runs from
#: the source tree, measured best-of-3 on the host that recorded
#: ``BENCH_kernels.json``: the end-to-end sort on the seed tree
#: (per-bucket scatter, element-wise PARADIS, allocation-per-call merge
#: layer), and the Merge Path merge on the tree before the linear run
#: merge (rank merge per segment).
SEED_WALL_S: Dict[str, float] = {
    "p2p-8gpu-2m-int32": 1.607,
    "mergepath-1m": 0.0407,
}


@dataclass
class KernelResult:
    """Before/after wall-clock of one kernel scenario."""

    name: str
    keys: int
    wall_s: float
    runs: List[float] = field(default_factory=list)
    ref_wall_s: Optional[float] = None
    #: Where the baseline comes from: a live run of the retained
    #: reference implementation, or the recorded seed-tree wall-clock.
    ref_source: str = "reference-impl"
    #: Whether the scenario's output passed its correctness check.
    check: bool = False

    @property
    def keys_per_sec(self) -> float:
        """Vectorized-path throughput."""
        return self.keys / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def ref_keys_per_sec(self) -> Optional[float]:
        """Reference-path throughput (``None`` without a baseline)."""
        if self.ref_wall_s is None or self.ref_wall_s <= 0:
            return None
        return self.keys / self.ref_wall_s

    @property
    def speedup(self) -> Optional[float]:
        """Reference wall over vectorized wall (``None`` if unknown)."""
        if self.ref_wall_s is None or self.wall_s <= 0:
            return None
        return self.ref_wall_s / self.wall_s

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable record, including derived rates."""
        record: Dict[str, object] = {
            "keys": self.keys,
            "wall_s": self.wall_s,
            "runs": self.runs,
            "keys_per_sec": self.keys_per_sec,
            "check": self.check,
        }
        if self.ref_wall_s is not None:
            record["ref_wall_s"] = self.ref_wall_s
            record["ref_keys_per_sec"] = self.ref_keys_per_sec
            record["speedup"] = self.speedup
            record["ref_source"] = self.ref_source
        return record


def _best_of(fn: Callable[[], None], repeats: int) -> List[float]:
    """Wall-clock seconds of ``repeats`` runs of ``fn``, sorted."""
    runs = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return sorted(runs)


def run_scatter(n: int, repeats: int) -> KernelResult:
    """Stable counting permutation: vectorized vs per-bucket gather."""
    from repro.gpuprims.common import (
        stable_counting_permutation,
        stable_counting_permutation_reference,
    )

    rng = np.random.default_rng(42)
    digits = rng.integers(0, 256, size=n).astype(np.int64)
    check = np.array_equal(
        stable_counting_permutation(digits, 256),
        stable_counting_permutation_reference(digits, 256))
    runs = _best_of(lambda: stable_counting_permutation(digits, 256),
                    repeats)
    ref_runs = _best_of(
        lambda: stable_counting_permutation_reference(digits, 256), 1)
    return KernelResult(name=f"scatter-{_size_tag(n)}", keys=n,
                        wall_s=runs[0], runs=runs, ref_wall_s=ref_runs[0],
                        check=check)


def run_paradis(n: int, repeats: int) -> KernelResult:
    """PARADIS: vectorized level vs element-wise speculation/repair."""
    from repro.cpuprims.paradis import paradis_sort, paradis_sort_reference

    data = generate(n, "uniform", np.int32, seed=42)
    check = np.array_equal(paradis_sort(data), paradis_sort_reference(data))
    runs = _best_of(lambda: paradis_sort(data), repeats)
    ref_runs = _best_of(lambda: paradis_sort_reference(data), 1)
    return KernelResult(name=f"paradis-{_size_tag(n)}", keys=n,
                        wall_s=runs[0], runs=runs, ref_wall_s=ref_runs[0],
                        check=check)


def _lsb_reference(values: np.ndarray) -> np.ndarray:
    """The seed LSB radix sort: reference scatter, per-pass allocations."""
    from repro.gpuprims.common import (
        from_radix_keys,
        stable_counting_permutation_reference,
        to_radix_keys,
    )

    keys, dtype = to_radix_keys(values)
    key_bits = dtype.itemsize * 8
    for shift in range(0, key_bits, 8):
        digits = ((keys >> keys.dtype.type(shift))
                  & keys.dtype.type(0xFF)).astype(np.int64)
        order = stable_counting_permutation_reference(digits, 256)
        keys = keys[order]
    return from_radix_keys(keys, dtype)


def run_lsb(n: int, repeats: int) -> KernelResult:
    """Full LSB radix sort: pooled double buffer vs seed composition."""
    from repro.gpuprims.radix_lsb import radix_sort_lsb

    data = generate(n, "uniform", np.int32, seed=42)
    check = np.array_equal(radix_sort_lsb(data), _lsb_reference(data))
    runs = _best_of(lambda: radix_sort_lsb(data), repeats)
    ref_runs = _best_of(lambda: _lsb_reference(data), 1)
    return KernelResult(name=f"lsb-{_size_tag(n)}", keys=n,
                        wall_s=runs[0], runs=runs, ref_wall_s=ref_runs[0],
                        check=check)


def run_merge(k: int, run_length: int, repeats: int) -> KernelResult:
    """K-way merge: pooled binary merge tree vs the loser tree."""
    from repro.cpuprims.multiway_merge import (
        multiway_merge,
        multiway_merge_losertree,
    )

    rng = np.random.default_rng(42)
    runs_data = [np.sort(rng.integers(0, 2**31, size=run_length)
                         .astype(np.int32)) for _ in range(k)]
    total = k * run_length
    check = np.array_equal(multiway_merge(runs_data),
                           multiway_merge_losertree(runs_data))
    runs = _best_of(lambda: multiway_merge(runs_data), repeats)
    ref_runs = _best_of(lambda: multiway_merge_losertree(runs_data), 1)
    return KernelResult(name=f"merge-{k}x{_size_tag(run_length)}",
                        keys=total, wall_s=runs[0], runs=runs,
                        ref_wall_s=ref_runs[0], check=check)


def run_mergepath(n: int, repeats: int) -> KernelResult:
    """One Merge Path merge of two sorted int32 runs of ``n / 2`` keys."""
    from repro.gpuprims.merge_path import merge_sorted

    rng = np.random.default_rng(42)
    a, b = (np.sort(rng.integers(0, 2**31, size=size, dtype=np.int32))
            for size in (n // 2, n - n // 2))
    out = np.empty(n, dtype=np.int32)
    runs = _best_of(lambda: merge_sorted(a, b, out=out), repeats)
    check = np.array_equal(out, np.sort(np.concatenate([a, b])))
    name = f"mergepath-{_size_tag(n)}"
    return KernelResult(name=name, keys=n, wall_s=runs[0], runs=runs,
                        ref_wall_s=SEED_WALL_S.get(name),
                        ref_source="seed-tree", check=check)


def run_e2e(keys: int, repeats: int) -> KernelResult:
    """Complete 8-GPU P2P sort: the simulated pipeline's wall-clock."""
    from repro.sort import p2p_sort  # deferred: pulls in the sort stack

    data = generate(keys, "uniform", np.int32, seed=42)
    outputs = []

    def once() -> None:
        machine = Machine(dgx_a100(), scale=1000.0)
        outputs.append(p2p_sort(machine, data).output)

    runs = _best_of(once, repeats)
    expected = np.sort(data)
    check = all(np.array_equal(output, expected) for output in outputs)
    name = f"p2p-8gpu-{_size_tag(keys)}-int32"
    return KernelResult(name=name, keys=keys, wall_s=runs[0], runs=runs,
                        ref_wall_s=SEED_WALL_S.get(name),
                        ref_source="seed-tree", check=check)


def _size_tag(n: int) -> str:
    if n % 1_000_000 == 0:
        return f"{n // 1_000_000}m"
    if n % 1_000 == 0:
        return f"{n // 1_000}k"
    return str(n)


def _rate(value: Optional[float]) -> str:
    return f"{value:,.0f}" if value else "-"


def run_kernels(quick: bool = False, repeats: Optional[int] = None,
                json_path: Optional[str] = "BENCH_kernels.json") -> Table:
    """Run the kernel-layer benchmark suite and build its table.

    ``quick`` shrinks every scenario (the CI smoke / perf-test mode) and
    skips the JSON record; the full suite measures the vectorized paths
    best-of-``repeats`` (references run once — they are the slow side)
    and writes ``json_path``.
    """
    if repeats is None:
        repeats = 1 if quick else 3
    if quick:
        plan = [
            lambda: run_scatter(100_000, repeats),
            lambda: run_paradis(50_000, repeats),
            lambda: run_lsb(200_000, repeats),
            lambda: run_merge(8, 4_000, repeats),
            lambda: run_mergepath(200_000, repeats),
            lambda: run_e2e(200_000, repeats),
        ]
        if json_path == "BENCH_kernels.json":
            # Don't clobber the committed full-suite record from a smoke.
            json_path = None
    else:
        plan = [
            lambda: run_scatter(1_000_000, repeats),
            lambda: run_paradis(1_000_000, repeats),
            lambda: run_lsb(1_000_000, repeats),
            lambda: run_merge(16, 16_000, repeats),
            lambda: run_mergepath(1_000_000, repeats),
            lambda: run_e2e(2_000_000, repeats),
        ]

    results = [scenario() for scenario in plan]
    failed = [result.name for result in results if not result.check]
    if failed:
        raise ReproError(f"kernel output checks failed: {', '.join(failed)}")

    table = Table(
        ["kernel", "keys", "before [s]", "after [s]", "before keys/s",
         "after keys/s", "speedup", "check"],
        title="Functional kernel throughput"
              + (" (quick)" if quick else ""))
    for result in results:
        before = (f"{result.ref_wall_s:.4f}"
                  if result.ref_wall_s is not None else "-")
        speedup = (f"{result.speedup:.2f}x"
                   if result.speedup is not None else "-")
        table.add_row(
            result.name, f"{result.keys:,}", before,
            f"{result.wall_s:.4f}", _rate(result.ref_keys_per_sec),
            _rate(result.keys_per_sec), speedup,
            "pass" if result.check else "FAIL")

    if json_path:
        record = {
            "benchmark": "kernels",
            "seed_note": (
                "per-kernel baselines are live runs of the retained "
                "reference implementations (the seed-tree algorithms, "
                "kept as property-test oracles); the e2e and mergepath "
                "baselines are seed-tree wall-clocks measured on the "
                "same host, best of 3; the e2e row times the whole "
                "simulated pipeline, whose kernels take their functional "
                "effect from NumPy, so its speedup is not a kernel "
                "speedup"),
            "repeats": repeats,
            "scenarios": {r.name: r.to_json() for r in results},
        }
        write_bench_record(json_path, record)
    return table


#: Set by the command line's ``--quick`` flag before the registry runs.
QUICK = False


def run_kernels_entry() -> Table:
    """Registry entry point; honours the command line's ``--quick``."""
    return run_kernels(quick=QUICK)
