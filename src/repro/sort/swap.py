"""The out-of-place P2P block swap of the merge phase (Section 5.2).

Given two GPU chunks divided by a pivot ``p``, the merge step exchanges
the last ``p`` keys of the left chunk with the first ``p`` keys of the
right chunk.  Following Tanasic et al., the swap is *out-of-place*:
each GPU assembles its post-swap chunk in its auxiliary buffer — the
kept block arrives via a device-local copy (orders of magnitude faster
than the interconnect, Section 5.2) that runs concurrently with the
inbound P2P copy; no synchronization between the streams is needed
because they write disjoint ranges.  The auxiliary buffer is the one
``thrust::sort`` already requires, so the swap adds no memory overhead.

After the swap each chunk consists of two sorted runs; the caller
merges them locally (GPU merge kernel).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.errors import SortError
from repro.runtime.kernels import merge_two_on_device
from repro.runtime.memcpy import copy_async, span

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import Machine
    from repro.sort.p2p import Chunk


def _p2p_copy(machine: "Machine", dst, src, multihop: bool, phase: str):
    """One P2P leg: direct, host-staged, or GPU-relayed (Section 7)."""
    if multihop:
        from repro.runtime.multihop import (
            copy_multihop,
            multihop_rate_estimate,
            relay_gpu_ids,
        )

        src_gpu = src.buffer.device.id
        dst_gpu = dst.buffer.device.id
        relays = relay_gpu_ids(machine, src_gpu, dst_gpu)
        if relays:
            route = machine.spec.topology.route(
                machine.spec.gpu_name(src_gpu),
                machine.spec.gpu_name(dst_gpu))
            staged_rate = (machine.spec.p2p_traverse_efficiency
                           * route.bottleneck)
            relayed_rate = multihop_rate_estimate(machine, src_gpu, dst_gpu)
            if relayed_rate and relayed_rate > staged_rate:
                result = yield from copy_multihop(machine, dst, src,
                                                  relays, phase=phase)
                return result
    result = yield from copy_async(machine, dst, src, phase=phase)
    return result


def _no_check() -> None:
    """Default ``check``: unsupervised runs have no failure to stop on."""


def swap_and_merge_pair(machine: "Machine", left: "Chunk",
                        right: "Chunk", pivot: int,
                        merge_phase: str = "Merge",
                        multihop: bool = False,
                        spawn=None, check=None):
    """Process: execute the pivot swap between two chunks, then merge.

    ``left`` and ``right`` are chunk holders exposing ``primary`` and
    ``aux`` device buffers of equal element count ``n``; ``pivot`` is
    the number of keys exchanged.  Zero pivots skip all copies; full
    pivots (``p == n``) skip the local merges (whole chunks change
    sides already sorted, like C1/C2 in the paper's Figure 9).

    ``spawn``/``check`` are the supervision seam: a supervised run
    spawns the concurrent copies and merges through its task group's
    shield (so a failing child never crashes the event loop) and calls
    ``check`` after each barrier to stop on a recorded failure before
    touching the chunks again.  Left unset, children are plain
    processes and ``check`` does nothing — bit-identical to the
    unsupervised path.

    Returns the logical byte volume moved over P2P links.
    """
    env = machine.env
    spawn = spawn or env.process
    check = check or _no_check
    n = left.size
    if right.size != n:
        raise SortError(
            f"chunk size mismatch: {n} vs {right.size}")
    if not 0 <= pivot <= n:
        raise SortError(f"pivot {pivot} out of range for chunks of {n}")
    if pivot == 0:
        # Leftmost-pivot optimization: nothing to exchange.
        return 0.0

    keep_left = n - pivot
    done = [
        # P2P: left's tail block becomes the head of right's new chunk,
        # right's head block becomes the tail of left's new chunk.
        spawn(_p2p_copy(
            machine, span(right.aux, 0, pivot),
            span(left.primary, keep_left, n), multihop, merge_phase)),
        spawn(_p2p_copy(
            machine, span(left.aux, keep_left, n),
            span(right.primary, 0, pivot), multihop, merge_phase)),
    ]
    if keep_left:
        # Device-local copies of the kept blocks into the aux buffers,
        # concurrent with the P2P streams (disjoint target ranges).
        done.append(spawn(copy_async(
            machine, span(left.aux, 0, keep_left),
            span(left.primary, 0, keep_left), phase=merge_phase)))
        done.append(spawn(copy_async(
            machine, span(right.aux, pivot, n),
            span(right.primary, pivot, n), phase=merge_phase)))
    p2p_bytes = 2.0 * pivot * left.primary.dtype.itemsize * machine.scale
    if left.has_values:
        # Payloads travel with their key blocks, doubling the traffic.
        done.append(spawn(_p2p_copy(
            machine, span(right.value_aux, 0, pivot),
            span(left.value_primary, keep_left, n), multihop,
            merge_phase)))
        done.append(spawn(_p2p_copy(
            machine, span(left.value_aux, keep_left, n),
            span(right.value_primary, 0, pivot), multihop, merge_phase)))
        if keep_left:
            done.append(spawn(copy_async(
                machine, span(left.value_aux, 0, keep_left),
                span(left.value_primary, 0, keep_left),
                phase=merge_phase)))
            done.append(spawn(copy_async(
                machine, span(right.value_aux, pivot, n),
                span(right.value_primary, pivot, n), phase=merge_phase)))
        p2p_bytes += (2.0 * pivot * left.value_primary.dtype.itemsize
                      * machine.scale)
    yield env.all_of(done)
    check()

    # The assembled chunks live in the aux buffers: swap the roles.
    left.flip_buffers()
    right.flip_buffers()

    if pivot < n:
        # The new aux buffers held the pre-swap chunks, which the
        # finished copies have read: the merges may use them as temp
        # storage.
        merges = [spawn(merge_two_on_device(
            machine, span(chunk.primary, 0, n), split, phase=merge_phase,
            values=span(chunk.value_primary, 0, n)
            if chunk.has_values else None,
            scratch=span(chunk.aux, 0, n),
            value_scratch=span(chunk.value_aux, 0, n)
            if chunk.has_values else None))
            for chunk, split in ((left, keep_left), (right, pivot))]
        yield env.all_of(merges)
        check()
    return p2p_bytes


def block_swap_sizes(pivot: int, chunk: int, pairs: int) -> Tuple[int, ...]:
    """Per-pair swap sizes for a multi-chunk (global) merge stage.

    A global stage over ``2 * pairs`` chunks of ``chunk`` keys each
    exchanges the last ``pivot`` keys of the left half with the first
    ``pivot`` keys of the right half under mirrored pairing: pair ``m``
    couples the ``m``-th chunk left of the middle with the ``m``-th
    chunk right of it (GPU sets ``(i, j, k, l)`` swap between ``(j, k)``
    and ``(i, l)``, Section 5.4).  Pair ``m`` exchanges
    ``clamp(pivot - m * chunk, 0, chunk)`` keys: the innermost pair is
    consumed first (a whole-chunk swap once the pivot exceeds one chunk,
    like C1/C2 in Figure 9), outer pairs move the remainder (the
    pivot-determined blocks of C0 and C3).
    """
    if pivot < 0 or pivot > chunk * pairs:
        raise SortError(
            f"pivot {pivot} out of range for {pairs} pairs of {chunk}")
    return tuple(min(max(pivot - m * chunk, 0), chunk)
                 for m in range(pairs))
