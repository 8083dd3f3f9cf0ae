"""Input fuzzer: seeded special-value inputs against every public sort.

The counterpart of :mod:`repro.faults.fuzzer` for the *data* instead of
the fault plan.  Every seed deterministically derives one
:class:`InputCase`: a sort (``p2p``, ``het``, a 4-node ``hier``, ``rp``,
the supervised sort, or one job of the sort service), a key dtype from
int8 to float64, and keys assembled from random, few-distinct,
all-equal, sorted, reverse and special-value runs (±0.0, ±NaN with and
without payload bits, signalling NaNs, ±inf, the dtype's extremes).
Sizes are often not a multiple of the GPU count, so the padding paths
run.  Sorts that carry records also get an int64 payload half the time.
The supervised cases alternate the P2P and the HET driver
(:func:`supervised_algorithm`).

Those HET cases are in-core.  :func:`out_of_core_case_for_seed` derives
out-of-core HET cases instead: the 2n or the 3n pipeline, keys or int64
records, and a machine scale that streams at least
:data:`OUT_OF_CORE_GROUPS` chunk groups through every GPU set, so the
3n pipeline's in-place transfer swap runs on random inputs too.

The contract under test (:func:`run_case`) is NumPy's sort order:

* integer keys come out bit-identical to ``np.sort(kind="stable")``;
* float keys come out equal to ``np.sort`` (NaNs equal to each other)
  *and* as a bit-level permutation of the input, so no sign bit of a
  zero and no NaN payload is lost or invented;
* (key, value) records come out as a permutation of the input records.

The payload order of equal keys is not asserted: the P2P pivot swap is
not stable on ties.

A sort that raises, or returns anything else, is a catch.  :func:`shrink`
delta-debugs a failing case down to a minimal input (drop the payload,
then delete ever smaller blocks of keys), so the reproduction printed
by the test is as small as the bug allows.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from repro.hw import dgx_a100

SORTS = ("p2p", "het", "hier", "rp", "supervised", "service")
#: Sorts that take a ``values=`` payload.
RECORD_SORTS = ("p2p", "het", "rp", "supervised")
DTYPES = ("int8", "int16", "int32", "int64", "uint64", "float32",
          "float64")
#: Nodes of every ``hier`` case.
HIER_NODES = 4
#: Logical bytes per physical byte; keeps simulated phases realistic
#: while every input stays a few hundred keys.
SCALE = 1e5
#: Fewest chunk groups an out-of-core HET case streams.
OUT_OF_CORE_GROUPS = 3

#: Float bit patterns worth a run of their own: +0, -0, +inf, -inf,
#: quiet NaNs of both signs, NaNs with payload bits, a signalling NaN,
#: the smallest denormal, and the largest finite values of both signs.
SPECIAL_BITS = {
    4: (0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000,
        0xFFC00000, 0xFFC00001, 0x7FC00123, 0x7F800001, 0x00000001,
        0x7F7FFFFF, 0xFF7FFFFF),
    8: (0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
        0x7FF8000000000000, 0xFFF8000000000000, 0xFFF8000000000001,
        0x7FF8000000000123, 0x7FF0000000000001, 0x1,
        0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF),
}


@dataclass(frozen=True, eq=False)
class InputCase:
    """One deterministic input case: a sort and the data it sorts."""

    seed: int
    sort: str
    gpus: int
    keys: np.ndarray
    #: int64 payloads (one per key), or ``None`` for a keys-only sort.
    values: Optional[np.ndarray] = None
    #: HET pipeline (``"2n"``/``"3n"``) of an out-of-core ``het`` case;
    #: ``None`` sorts in-core.
    approach: Optional[str] = None


@dataclass(frozen=True)
class Outcome:
    """Result of one input case."""

    #: ``ok``, ``crash`` (any exception) or ``mismatch`` (wrong output).
    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def bits(array: np.ndarray) -> np.ndarray:
    """The raw bit patterns of ``array``."""
    return array.view(f"u{array.dtype.itemsize}")


def _run_of(rng: np.random.Generator, dtype: np.dtype,
            length: int) -> np.ndarray:
    """One run of ``length`` keys of a randomly chosen shape."""
    kind = int(rng.integers(6))
    if dtype.kind == "f":
        wide = rng.standard_normal(length) * 10.0 ** rng.integers(-3, 7)
        if kind == 5:
            patterns = np.array(SPECIAL_BITS[dtype.itemsize],
                                dtype=f"u{dtype.itemsize}")
            return rng.choice(patterns, size=length).view(dtype)
        run = wide.astype(dtype)
    else:
        info = np.iinfo(dtype)
        if kind == 5:
            run = rng.choice(np.array([info.min, info.max, 0, 1, info.max
                                       - 1], dtype=dtype), size=length)
        else:
            run = rng.integers(info.min, info.max, size=length,
                               dtype=dtype, endpoint=True)
    if kind == 1:
        # Few distinct keys: heavy duplication.
        run = rng.choice(run[:3], size=length)
    elif kind == 2:
        run = np.full(length, run[0], dtype=dtype)
    elif kind == 3:
        run = np.sort(run)
    elif kind == 4:
        run = np.sort(run)[::-1].copy()
    return run


def case_for_seed(seed: int) -> InputCase:
    """Derive the input case for ``seed`` (same seed, same case)."""
    rng = np.random.default_rng(seed ^ 0x1A9E7)
    sort = SORTS[seed % len(SORTS)]
    dtype = np.dtype(DTYPES[int(rng.integers(len(DTYPES)))])
    gpus = int(rng.choice((2, 4, 8))) if sort != "hier" else 8
    # A hierarchical sort needs a key per node.
    n = int(rng.integers(HIER_NODES if sort == "hier" else 1, 300))
    keys = _keys_of(rng, dtype, n)
    values = None
    if sort in RECORD_SORTS and rng.random() < 0.5:
        values = rng.permutation(n).astype(np.int64)
    return InputCase(seed=seed, sort=sort, gpus=gpus, keys=keys,
                     values=values)


def supervised_algorithm(case: InputCase) -> str:
    """The driver a ``supervised`` case runs: every other such seed is
    P2P, the rest HET."""
    return ("p2p", "het")[case.seed // len(SORTS) % 2]


def _keys_of(rng: np.random.Generator, dtype: np.dtype,
             n: int) -> np.ndarray:
    """``n`` keys assembled from runs of random shapes."""
    runs, total = [], 0
    while total < n:
        length = int(rng.integers(1, n - total + 1))
        runs.append(_run_of(rng, dtype, length))
        total += length
    keys = np.concatenate(runs)
    if rng.random() < 0.5:
        keys = rng.permutation(keys)
    return keys


def out_of_core_case_for_seed(seed: int) -> InputCase:
    """Derive the out-of-core HET case for ``seed``.

    Seeds alternate the 2n and 3n pipelines, and keys-only and int64
    records every second seed, so any four consecutive seeds cover all
    four combinations.
    """
    rng = np.random.default_rng(seed ^ 0x3E7C0)
    dtype = np.dtype(DTYPES[int(rng.integers(len(DTYPES)))])
    gpus = int(rng.choice((1, 2, 4, 8)))
    n = int(rng.integers(OUT_OF_CORE_GROUPS * gpus, 300))
    keys = _keys_of(rng, dtype, n)
    values = (rng.permutation(n).astype(np.int64) if seed // 2 % 2
              else None)
    return InputCase(seed=seed, sort="het", gpus=gpus, keys=keys,
                     values=values, approach=("2n", "3n")[seed % 2])


def out_of_core_setup(case: InputCase):
    """``(machine, gpu_ids, config)`` that run ``case`` out of core.

    The machine scale sizes each chunk to ``n / (gpus *
    OUT_OF_CORE_GROUPS)`` keys (rounded down), so the HET sort streams
    at least that many chunk groups.
    """
    from repro.runtime import Machine
    from repro.sort.het import MEMORY_BUDGET, HetConfig

    spec = dgx_a100()
    gpu_ids = spec.preferred_gpu_set(case.gpus)
    config = HetConfig(approach=case.approach)
    record = case.keys.dtype.itemsize
    if case.values is not None:
        record += case.values.dtype.itemsize
    chunk = case.keys.size // (case.gpus * OUT_OF_CORE_GROUPS)
    capacity = min(spec.gpu_specs[spec.gpu_name(gpu_id)].memory_bytes
                   for gpu_id in gpu_ids)
    # Half a key of headroom keeps float rounding from shrinking the
    # chunk capacity below ``chunk``.
    scale = (capacity * MEMORY_BUDGET
             / (config.buffers_per_gpu() * record * (chunk + 0.5)))
    return Machine(spec, scale=scale), gpu_ids, config


def sort_case(case: InputCase):
    """Run the case's sort; returns ``(keys, values)`` of its output."""
    from repro.runtime import Machine

    keys = case.keys.copy()
    values = None if case.values is None else case.values.copy()
    if case.approach is not None:
        from repro.sort import het_sort

        machine, gpu_ids, config = out_of_core_setup(case)
        result = het_sort(machine, keys, gpu_ids=gpu_ids, config=config,
                          values=values)
        return result.output, result.output_values
    if case.sort == "hier":
        from repro.hw.cluster import make_cluster
        from repro.sort import hier_sort

        machine = Machine(make_cluster("dgx-a100", HIER_NODES),
                          scale=SCALE)
        result = hier_sort(machine, keys)
        return result.output, None
    machine = Machine(dgx_a100(), scale=SCALE)
    gpu_ids = machine.spec.preferred_gpu_set(case.gpus)
    if case.sort == "supervised":
        from repro.recovery import SortSupervisor

        result = SortSupervisor(machine).sort(
            keys, algorithm=supervised_algorithm(case), gpu_ids=gpu_ids,
            values=values)
        return result.output, result.output_values
    if case.sort == "service":
        from repro.serve.job import JobSpec
        from repro.serve.service import SortService

        service = SortService(machine)
        service.submit(JobSpec(job_id=0, tenant="fuzz", arrival_s=0.0,
                               keys=keys.size, dtype=str(keys.dtype),
                               gpus=case.gpus, algorithm="p2p"),
                       data=keys)
        machine.env.run()
        (job,) = service.results
        if job.status != "completed":
            raise AssertionError(f"service job {job.status}: {job.reason}")
        return job.sort.output, None
    from repro.sort import het_sort, p2p_sort, rp_sort

    sort = {"p2p": p2p_sort, "het": het_sort, "rp": rp_sort}[case.sort]
    result = sort(machine, keys, gpu_ids=gpu_ids, values=values)
    return result.output, result.output_values


def contract_problems(case: InputCase, out: np.ndarray,
                      out_values: Optional[np.ndarray]) -> str:
    """Why ``out``/``out_values`` break the contract ('' if they don't)."""
    keys = case.keys
    out = np.asarray(out)
    if out.dtype != keys.dtype or out.shape != keys.shape:
        return (f"output is {out.dtype}[{out.size}], input "
                f"{keys.dtype}[{keys.size}]")
    if keys.dtype.kind == "f":
        if not np.array_equal(out, np.sort(keys), equal_nan=True):
            return "float output is not equal to np.sort of the input"
        if not np.array_equal(np.sort(bits(out)), np.sort(bits(keys))):
            return ("float output is not a bit-level permutation of the "
                    "input (sign bits or NaN payloads changed)")
    elif not np.array_equal(out, np.sort(keys, kind="stable")):
        return "integer output is not np.sort(kind='stable') of the input"
    if case.values is not None:
        if out_values is None or len(out_values) != len(out):
            return "payloads missing from the output"
        records_in = np.lexsort((case.values, bits(keys)))
        records_out = np.lexsort((out_values, bits(out)))
        if not (np.array_equal(bits(keys)[records_in],
                               bits(out)[records_out])
                and np.array_equal(case.values[records_in],
                                   out_values[records_out])):
            return "output records are not a permutation of the input's"
    return ""


def run_case(case: InputCase) -> Outcome:
    """Run one input case and classify what happened."""
    try:
        out, out_values = sort_case(case)
    except Exception:  # noqa: BLE001 - any exception is a catch
        return Outcome("crash", traceback.format_exc())
    problem = contract_problems(case, out, out_values)
    return Outcome("mismatch", problem) if problem else Outcome("ok")


def _variants(case: InputCase) -> Iterator[InputCase]:
    """Single-step reductions of the case's input."""
    if case.values is not None:
        yield replace(case, values=None)
    n = case.keys.size
    fewest = HIER_NODES if case.sort == "hier" else 1
    if case.approach is not None:
        fewest = OUT_OF_CORE_GROUPS * case.gpus
    size = n // 2
    while size >= 1:
        for start in range(0, n, size):
            keep = np.r_[0:start, min(n, start + size):n]
            if keep.size < fewest:
                continue
            yield replace(case, keys=case.keys[keep],
                          values=(None if case.values is None
                                  else case.values[keep]))
        size //= 2


def shrink(case: InputCase,
           failing: Optional[Callable[[InputCase], bool]] = None,
           max_runs: int = 300) -> InputCase:
    """Greedy delta-debugging: a minimal still-failing variant of ``case``.

    Tries dropping the payload, then deleting blocks of keys from half
    the input down to single keys; takes the first reduction that still
    fails and starts over, until none does.  ``failing`` defaults to
    actually running the case; tests inject synthetic predicates to pin
    the machinery itself.
    """
    if failing is None:
        failing = lambda variant: run_case(variant).failed  # noqa: E731
    current = case
    runs = 0
    progress = True
    while progress and runs < max_runs:
        progress = False
        for variant in _variants(current):
            runs += 1
            if failing(variant):
                current = variant
                progress = True
                break
            if runs >= max_runs:
                break
    return current


def describe_case(case: InputCase) -> str:
    """A reproduction recipe for a (shrunken) failing case."""
    keys = case.keys
    lines = [f"seed={case.seed} sort={case.sort} gpus={case.gpus} "
             f"dtype={keys.dtype} n={keys.size} "
             f"payload={'int64' if case.values is not None else 'none'}"]
    if case.approach is not None:
        lines[0] += f" out-of-core approach={case.approach}"
    if case.sort == "supervised":
        lines[0] += f" algorithm={supervised_algorithm(case)}"
    if keys.size <= 64:
        lines.append("key bits: " + " ".join(
            f"0x{int(word):0{2 * keys.dtype.itemsize}X}"
            for word in bits(keys)))
        lines.append(f"keys: {keys.tolist()}")
        if case.values is not None:
            lines.append(f"values: {case.values.tolist()}")
    return "\n".join(lines)
