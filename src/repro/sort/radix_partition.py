"""RP sort: partition-based multi-GPU sorting (Section 7, implemented).

The paper's closing proposal: *"we suggest to reduce the P2P
communication by designing a radix partitioning-based multi-GPU sorting
algorithm which would require swapping keys between GPUs only once
(all-to-all). This approach would highly benefit systems with many
NVSwitch-interconnected GPUs such as the DGX A100."*

This module implements that algorithm (with sampled splitters instead
of fixed radix bits, so skewed distributions stay balanced):

1. chunks are scattered to the GPUs as usual,
2. every GPU samples its chunk; the host sorts the sample union and
   derives ``g - 1`` splitters,
3. every GPU partitions its chunk into ``g`` buckets in one pass,
4. **one all-to-all exchange** ships bucket ``j`` of every chunk to
   GPU ``j`` — each key crosses the interconnect at most once,
   expected volume ``n * (g-1)/g`` versus the merge-based P2P sort's
   ``~n/2 * (g-1)``,
5. every GPU sorts its received keys locally; the concatenated chunks
   are the sorted output.

Unlike the merge-based P2P sort, RP sort works for *any* GPU count (no
power-of-two restriction).  The trade-off is memory: receive buffers
need slack for partition imbalance, so the maximum in-core data size is
slightly smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import SortError
from repro.runtime.buffer import HostBuffer
from repro.runtime.context import Machine
from repro.runtime.kernels import sort_on_device
from repro.runtime.memcpy import copy_async, span
from repro.sort.gpu_set import plan_gpu_set
from repro.sort.result import SortRecord, SortResult, stage_input
from repro.units import US


@dataclass
class RPConfig:
    """Tunables of the partition-based sort."""

    #: Single-GPU sort primitive for the final local sorts (Table 2).
    primitive: str = "thrust"
    #: Sample keys per GPU per output partition; higher values tighten
    #: the balance of the exchange.
    oversample: int = 32
    #: Receive-buffer headroom over the perfectly balanced size.
    slack: float = 1.3
    #: Partition-pass speed relative to the radix sort rate: one
    #: histogram + scatter pass versus the sort's multiple passes.
    partition_speedup: float = 3.0


def _partition_seconds(machine: Machine, device, nbytes_logical: float,
                       config: RPConfig, itemsize: int) -> float:
    sort_rate = device.spec.sort_rate(config.primitive, itemsize)
    return (device.spec.launch_overhead_s
            + nbytes_logical / (sort_rate * config.partition_speedup))


def _assign_buckets(keys: np.ndarray, splitters: np.ndarray,
                    parts: int,
                    tie_fractions: "dict" = None) -> np.ndarray:
    """Destination bucket per key, splitting splitter ties by rank.

    Keys strictly between splitters have exactly one legal bucket.  A
    key *equal* to a splitter may go to either adjacent bucket (or a
    whole range when splitters repeat under heavy duplication) without
    breaking the global order.  ``tie_fractions`` — computed from the
    sample by :func:`_splitters` — gives, per tied value, the fraction
    of its copies that belong below each boundary; copies are cut
    accordingly, which keeps the exchange balanced even for degenerate
    inputs (the rank-based tie-breaking device of sample sort).
    """
    lo = np.searchsorted(splitters, keys, side="left").astype(np.int64)
    hi = np.searchsorted(splitters, keys, side="right").astype(np.int64)
    buckets = hi.copy()
    ties = np.flatnonzero(hi > lo)
    if not ties.size:
        return buckets
    tie_fractions = tie_fractions or {}
    # Group the tied keys by their first equal splitter rather than by
    # value: NaN keys tie with NaN splitters in the search order but
    # compare unequal to them.
    for first in np.unique(lo[ties]):
        where = ties[lo[ties] == first]
        first, last = int(first), int(hi[where[0]])
        fractions = tie_fractions.get(
            keys[where[0]], [(i - first + 1) / (last - first + 1)
                             for i in range(first, last)])
        cuts = [int(round(f * where.size)) for f in fractions]
        assignment = np.full(where.size, last, dtype=np.int64)
        start = 0
        for offset, cut in enumerate(cuts):
            assignment[start:cut] = first + offset
            start = max(start, cut)
        buckets[where] = assignment
    return buckets


def _splitters(samples: np.ndarray, parts: int):
    """Splitters at the sample quantiles, plus tie-split fractions.

    Returns ``(values, tie_fractions)``: the ``parts - 1`` boundary
    values, and — for every value that appears at one or more
    boundaries — the fraction of that value's copies that belong below
    each of its boundaries (derived from the boundary's rank within the
    value's run of equal samples).
    """
    ordered = np.sort(samples)
    positions = [(len(ordered) * (i + 1)) // parts
                 for i in range(parts - 1)]
    values = ordered[positions]
    tie_fractions = {}
    for value in np.unique(values):
        run_start = int(np.searchsorted(ordered, value, side="left"))
        run_stop = int(np.searchsorted(ordered, value, side="right"))
        run = max(1, run_stop - run_start)
        fractions = [(positions[i] - run_start) / run
                     for i in range(parts - 1) if values[i] == value]
        tie_fractions[value] = [min(1.0, max(0.0, f)) for f in fractions]
    return values, tie_fractions


def rp_sort(machine: Machine, data: Union[np.ndarray, HostBuffer],
            gpu_ids: Optional[Sequence[int]] = None,
            config: Optional[RPConfig] = None,
            values: Optional[np.ndarray] = None) -> SortResult:
    """Sort ``data`` with the single-exchange partition algorithm.

    Phases: ``HtoD`` (scatter), ``Partition`` (sample, split, bucket),
    ``Exchange`` (the one all-to-all), ``Sort`` (local sorts), ``DtoH``
    (gather).  Returns a :class:`~repro.sort.result.SortResult` whose
    ``p2p_bytes`` counts the exchange volume.  Pass ``values`` to carry
    one payload per key through the partition, the exchange and the
    local sorts.
    """
    config = config or RPConfig()
    if config.slack < 1.0:
        raise SortError(f"slack must be >= 1, got {config.slack}")
    if config.oversample < 1:
        raise SortError(f"oversample must be >= 1, got {config.oversample}")
    host_in, host_values = stage_input(machine, data, values)
    value_dtype = host_values.dtype if host_values is not None else None
    n = len(host_in.data)
    ids, excluded = plan_gpu_set(machine, gpu_ids, power_of_two=False)
    g = len(ids)
    dtype = host_in.dtype
    itemsize = dtype.itemsize
    record_bytes = itemsize + (value_dtype.itemsize if value_dtype else 0)
    chunk = -(-n // g)
    recv_capacity = max(int(chunk * config.slack) + g, chunk)
    if n <= g * g * config.oversample:
        # Tiny inputs: the splitters come from sampling *with
        # replacement*, so an unlucky draw can skew the quantiles far
        # enough that no reasonable slack covers the heaviest bucket
        # (e.g. 14 duplicates of 18 keys landing on one GPU).  The
        # whole input is a rounding error at this size — cover the
        # worst case outright.
        recv_capacity = n
    for gpu_id in ids:
        device = machine.device(gpu_id)
        need = (max(2 * chunk, 2 * recv_capacity)
                * record_bytes * machine.scale)
        if need > device.capacity_logical:
            raise SortError(
                f"{device.name}: RP sort needs {need / 1e9:.1f} GB "
                f"(logical) for chunk, partition and receive buffers, "
                f"exceeding {device.capacity_logical / 1e9:.1f} GB")

    host_out = machine.host_buffer(np.empty(n, dtype=dtype),
                                   numa=host_in.numa)
    values_out = None
    if value_dtype is not None:
        values_out = machine.host_buffer(np.empty(n, dtype=value_dtype),
                                         numa=host_in.numa)
    stats = {"exchange_bytes": 0.0}

    def run():
        env = machine.env
        devices = [machine.device(i) for i in ids]
        sizes = [max(0, min(chunk, n - slot * chunk)) for slot in range(g)]
        primaries = [devices[slot].alloc(sizes[slot], dtype,
                                         label=f"rp_chunk{slot}")
                     for slot in range(g)]
        value_primaries = None
        if value_dtype is not None:
            value_primaries = [devices[slot].alloc(
                sizes[slot], value_dtype, label=f"rp_vals{slot}")
                for slot in range(g)]

        starts = [min(n, slot * chunk) for slot in range(g)]
        htod = [env.process(copy_async(
            machine, span(primaries[slot]),
            span(host_in, starts[slot], starts[slot] + sizes[slot]),
            phase="HtoD")) for slot in range(g) if sizes[slot]]
        if value_primaries is not None:
            htod += [env.process(copy_async(
                machine, span(value_primaries[slot]),
                span(host_values, starts[slot],
                     starts[slot] + sizes[slot]),
                phase="HtoD")) for slot in range(g) if sizes[slot]]
        yield env.all_of(htod)

        # -- sampling and splitter selection (host-side, tiny) ---------
        partition_start = env.now
        active = [slot for slot in range(g) if sizes[slot] > 0]
        sample_size = min(config.oversample * g,
                          min(sizes[slot] for slot in active))
        rng = np.random.default_rng(0xC0FFEE)
        samples = []
        sample_copies = []
        staged_buffers = []
        for slot in active:
            picks = np.sort(rng.integers(0, sizes[slot],
                                         size=sample_size))
            sample = primaries[slot].data[picks].copy()
            samples.append(sample)
            sample_buf = machine.host_buffer(np.empty(sample_size, dtype),
                                             numa=host_in.numa)
            staged = devices[slot].alloc(sample_size, dtype)
            staged.data[:] = sample
            staged_buffers.append(staged)
            sample_copies.append(env.process(copy_async(
                machine, span(sample_buf), span(staged))))
        yield env.all_of(sample_copies)
        for staged in staged_buffers:
            staged.free()
        splitters, tie_fractions = _splitters(
            np.concatenate(samples), g)
        # Broadcasting g-1 splitters to each GPU: latency-bound.
        yield env.timeout(g * 20 * US)

        # -- one-pass bucket partition, all GPUs concurrently ------------
        partitioned = [devices[slot].alloc(sizes[slot], dtype,
                                           label=f"rp_part{slot}")
                       for slot in range(g)]
        value_partitioned = None
        if value_dtype is not None:
            value_partitioned = [devices[slot].alloc(
                sizes[slot], value_dtype, label=f"rp_vpart{slot}")
                for slot in range(g)]
        bucket_bounds: List[np.ndarray] = [np.zeros(g + 1, dtype=np.int64)
                                           for _ in range(g)]

        def partition_one(slot: int):
            device = devices[slot]
            size = sizes[slot]
            logical = size * record_bytes * machine.scale
            yield env.timeout(_partition_seconds(
                machine, device, logical, config, itemsize))
            keys = primaries[slot].data[:size]
            buckets = _assign_buckets(keys, splitters, g,
                                       tie_fractions)
            # A stable argsort of the bucket ids is the counting scatter;
            # the narrow dtype keeps NumPy on its radix sort.
            order = np.argsort(buckets.astype(np.uint8 if g <= 256
                                              else np.uint16), kind="stable")
            # Gather straight into the partition buffer — no fancy-index
            # temporary between the device buffers.
            np.take(keys, order, out=partitioned[slot].data[:size])
            if value_partitioned is not None:
                np.take(value_primaries[slot].data[:size], order,
                        out=value_partitioned[slot].data[:size])
            counts = np.bincount(buckets, minlength=g)
            np.cumsum(counts, out=bucket_bounds[slot][1:])
            machine.trace.record("Partition", device.name,
                                 partition_start, bytes=logical)

        yield env.all_of([env.process(partition_one(slot))
                          for slot in range(g) if sizes[slot]])
        for primary in primaries:
            primary.free()
        if value_primaries is not None:
            for buffer in value_primaries:
                buffer.free()

        # -- the single all-to-all exchange -----------------------------
        recv_counts = [
            int(sum(bucket_bounds[src][dst + 1] - bucket_bounds[src][dst]
                    for src in range(g)))
            for dst in range(g)
        ]
        for dst in range(g):
            if recv_counts[dst] > recv_capacity:
                raise SortError(
                    f"partition imbalance: GPU slot {dst} receives "
                    f"{recv_counts[dst]} keys, buffer holds "
                    f"{recv_capacity}; increase RPConfig.slack or "
                    "oversample")
        receives = [devices[slot].alloc(recv_capacity, dtype,
                                        label=f"rp_recv{slot}")
                    for slot in range(g)]
        value_receives = None
        if value_dtype is not None:
            value_receives = [devices[slot].alloc(
                recv_capacity, value_dtype, label=f"rp_vrecv{slot}")
                for slot in range(g)]
        offsets = [0] * g
        copies = []
        for src in range(g):
            for dst in range(g):
                lo = int(bucket_bounds[src][dst])
                hi = int(bucket_bounds[src][dst + 1])
                if lo == hi:
                    continue
                length = hi - lo
                target = span(receives[dst], offsets[dst],
                              offsets[dst] + length)
                source = span(partitioned[src], lo, hi)
                copies.append(env.process(copy_async(
                    machine, target, source, phase="Exchange")))
                if value_receives is not None:
                    copies.append(env.process(copy_async(
                        machine,
                        span(value_receives[dst], offsets[dst],
                             offsets[dst] + length),
                        span(value_partitioned[src], lo, hi),
                        phase="Exchange")))
                offsets[dst] += length
                if src != dst:
                    stats["exchange_bytes"] += (length * record_bytes
                                                * machine.scale)
        yield env.all_of(copies)
        for aux in partitioned:
            aux.free()
        if value_partitioned is not None:
            for aux in value_partitioned:
                aux.free()

        # -- local sorts and gather --------------------------------------
        # The local radix sort needs its auxiliary buffer (Section 5.1),
        # accounted here so the capacity math stays honest.
        sort_aux = [devices[slot].alloc(recv_counts[slot], dtype,
                                        label=f"rp_sort_aux{slot}")
                    for slot in range(g)]
        value_sort_aux = []
        if value_dtype is not None:
            value_sort_aux = [devices[slot].alloc(
                recv_counts[slot], value_dtype,
                label=f"rp_vsort_aux{slot}") for slot in range(g)]
        sorts = [env.process(sort_on_device(
            machine, span(receives[slot], 0, recv_counts[slot]),
            primitive=config.primitive, phase="Sort",
            values=span(value_receives[slot], 0, recv_counts[slot])
            if value_receives is not None else None))
            for slot in range(g) if recv_counts[slot]]
        yield env.all_of(sorts)
        for aux in sort_aux + value_sort_aux:
            aux.free()

        out_offsets = np.zeros(g + 1, dtype=np.int64)
        np.cumsum(recv_counts, out=out_offsets[1:])
        dtoh = [env.process(copy_async(
            machine,
            span(host_out, int(out_offsets[slot]),
                 int(out_offsets[slot + 1])),
            span(receives[slot], 0, recv_counts[slot]), phase="DtoH"))
            for slot in range(g) if recv_counts[slot]]
        if value_receives is not None:
            dtoh += [env.process(copy_async(
                machine,
                span(values_out, int(out_offsets[slot]),
                     int(out_offsets[slot + 1])),
                span(value_receives[slot], 0, recv_counts[slot]),
                phase="DtoH"))
                for slot in range(g) if recv_counts[slot]]
        yield env.all_of(dtoh)
        for buffer in receives:
            buffer.free()
        if value_receives is not None:
            for buffer in value_receives:
                buffer.free()

    with SortRecord(machine, "RPSort", host_in) as record:
        machine.run(run())
    return record.result(
        "rp", ids, ("HtoD", "Partition", "Exchange", "Sort", "DtoH"),
        excluded=excluded,
        p2p_bytes=stats["exchange_bytes"],
        merge_stages=1,
        output=host_out.data,
        output_values=values_out.data if values_out is not None else None)
