"""Algorithm advisor: let the calibrated model pick the configuration.

The paper's practical upshot is that the right algorithm depends on the
machine: P2P sort on NVSwitch boxes, HET sort beyond the combined GPU
memory, GPU order and placement mattering on NUMA-split topologies.
This module automates that judgement — the payoff of having a
calibrated model is that candidate plans can be *priced* in
milliseconds of host time before touching real data.

>>> from repro.hw import dgx_a100
>>> from repro.sort.advisor import recommend
>>> plan = recommend(dgx_a100(), n_keys=2_000_000_000)
>>> plan.algorithm in ("p2p", "rp")
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.data import generate
from repro.errors import SortError
from repro.hw.systems import SystemSpec
from repro.runtime.context import Machine
from repro.sort.gpu_set import best_gpu_order_for_p2p
from repro.sort.het import HetConfig, het_sort
from repro.sort.p2p import P2PConfig, p2p_sort
from repro.sort.radix_partition import RPConfig, rp_sort

#: Physical keys per probe run.
_PROBE_KEYS = 100_000


@dataclass(frozen=True)
class Plan:
    """One priced execution plan."""

    algorithm: str
    gpu_ids: Tuple[int, ...]
    predicted_seconds: float
    config: object
    notes: str = ""

    def describe(self) -> str:
        """One line for humans."""
        return (f"{self.algorithm} on GPUs {self.gpu_ids}: "
                f"{self.predicted_seconds:.3f} s predicted"
                + (f" ({self.notes})" if self.notes else ""))


@dataclass
class Recommendation:
    """The winner plus every candidate considered."""

    best: Plan
    candidates: List[Plan] = field(default_factory=list)

    @property
    def algorithm(self) -> str:
        return self.best.algorithm

    @property
    def gpu_ids(self) -> Tuple[int, ...]:
        return self.best.gpu_ids

    @property
    def predicted_seconds(self) -> float:
        return self.best.predicted_seconds

    def table(self) -> str:
        """All candidates, best first."""
        ordered = sorted(self.candidates,
                         key=lambda plan: plan.predicted_seconds)
        return "\n".join(plan.describe() for plan in ordered)


def _probe(spec_factory: Callable[[], SystemSpec], scale: float,
           sorter, keys: np.ndarray, **kwargs) -> Optional[float]:
    machine = Machine(spec_factory(), scale=scale)
    try:
        return sorter(machine, keys, **kwargs).duration
    except SortError:
        return None


def recommend(spec: SystemSpec, n_keys: float, dtype=np.int32,
              distribution: str = "uniform",
              numa_local_input: bool = False,
              seed: int = 7) -> Recommendation:
    """Pick the fastest plan for sorting ``n_keys`` keys on ``spec``.

    Every applicable candidate — P2P sort (with the GPU-order
    optimizer, and multi-hop routing where relays exist), HET sort
    (with GPU-merged groups out of core), and RP sort — is simulated at
    scale and ranked.  ``numa_local_input=True`` prices the NUMA-local
    placement variants as well (for inputs already partitioned across
    nodes, no redistribution charge).

    The recommendation carries the exact ``config`` object to pass back
    into the corresponding sort function.
    """
    dtype = np.dtype(dtype)
    if n_keys < 1:
        raise SortError(f"n_keys must be >= 1, got {n_keys}")
    physical = int(min(_PROBE_KEYS, n_keys))
    scale = max(1.0, float(n_keys) / physical)
    keys = generate(physical, distribution, dtype, seed=seed)
    spec_name = spec.name

    from repro.hw import system_by_name

    def factory() -> SystemSpec:
        try:
            return system_by_name(spec_name)
        except Exception:
            return spec

    candidates: List[Plan] = []

    # GPU counts to consider: powers of two up to the machine, plus the
    # full machine for the algorithms that allow any count.
    counts = []
    count = 1
    while count <= spec.num_gpus:
        counts.append(count)
        count *= 2
    if spec.num_gpus not in counts:
        counts.append(spec.num_gpus)

    for gpus in counts:
        ids = spec.preferred_gpu_set(gpus)
        placements = [("node0", False)]
        if numa_local_input:
            placements.append(("numa-local", False))
        # P2P sort (power-of-two counts only), with the order optimizer.
        if gpus > 1 and not (gpus & (gpus - 1)):
            ordered = best_gpu_order_for_p2p(spec, ids)
            for placement, charge in placements:
                for multihop in (False, True):
                    config = P2PConfig(multihop=multihop,
                                       input_placement=placement,
                                       charge_redistribution=charge)
                    seconds = _probe(factory, scale, p2p_sort, keys,
                                     gpu_ids=ordered, config=config)
                    if seconds is None:
                        continue
                    notes = []
                    if ordered != ids:
                        notes.append("reordered")
                    if multihop:
                        notes.append("multihop")
                    if placement != "node0":
                        notes.append(placement)
                    candidates.append(Plan("p2p", ordered, seconds, config,
                                           ", ".join(notes)))
        # RP sort: any GPU count.
        if gpus > 1:
            seconds = _probe(factory, scale, rp_sort, keys, gpu_ids=ids,
                             config=RPConfig())
            if seconds is not None:
                candidates.append(Plan("rp", ids, seconds, RPConfig()))
        # HET sort: always applicable (also the single-GPU baseline).
        for gpu_merge in ((False, True) if gpus > 1
                          and not (gpus & (gpus - 1)) else (False,)):
            config = HetConfig(gpu_merge_groups=gpu_merge)
            seconds = _probe(factory, scale, het_sort, keys, gpu_ids=ids,
                             config=config)
            if seconds is not None:
                candidates.append(Plan(
                    "het", ids, seconds, config,
                    "gpu-merged groups" if gpu_merge else ""))

    if not candidates:
        raise SortError(
            f"no algorithm can sort {n_keys:.3g} keys on {spec.name}")
    best = min(candidates, key=lambda plan: plan.predicted_seconds)
    return Recommendation(best=best, candidates=candidates)
