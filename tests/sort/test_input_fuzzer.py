"""The input fuzzer: 400 seeded special-value inputs against every sort.

Every case must come out in NumPy's sort order as a bit-level
permutation of its input (records included); any crash or wrong output
is shrunk to a minimal failing input and printed.  Out-of-core HET cases
(2n and 3n pipelines) get their own seeds.  Every case runs under the
copy oracle: each copy must land its source bytes as of issue time.
"""

import numpy as np
import pytest

from repro.sort.het import chunk_capacity_for, plan_chunks
from tests.sort.input_fuzzer import (
    OUT_OF_CORE_GROUPS,
    SORTS,
    InputCase,
    case_for_seed,
    contract_problems,
    describe_case,
    out_of_core_case_for_seed,
    out_of_core_setup,
    run_case,
    shrink,
    supervised_algorithm,
)

SEEDS = range(400)
OUT_OF_CORE_SEEDS = range(120)


def _check(case: InputCase, oracle) -> None:
    outcome = run_case(case)
    if outcome.failed:
        minimal = shrink(case)
        pytest.fail(
            f"input seed {case.seed} {outcome.status}: {outcome.detail}\n"
            f"minimal failing case:\n{describe_case(minimal)}")
    assert oracle.checked


@pytest.mark.parametrize("seed", SEEDS)
def test_input_case(seed, copy_oracle):
    _check(case_for_seed(seed), copy_oracle)


@pytest.mark.parametrize("seed", OUT_OF_CORE_SEEDS)
def test_out_of_core_het_case(seed, copy_oracle):
    _check(out_of_core_case_for_seed(seed), copy_oracle)


def test_out_of_core_seeds_stream_chunk_groups():
    cases = [out_of_core_case_for_seed(seed) for seed in OUT_OF_CORE_SEEDS]
    assert {(case.approach, case.values is not None) for case in cases} \
        == {("2n", False), ("2n", True), ("3n", False), ("3n", True)}
    for case in cases:
        machine, gpu_ids, config = out_of_core_setup(case)
        capacity = chunk_capacity_for(
            machine, [machine.device(i) for i in gpu_ids], config,
            case.keys.dtype,
            None if case.values is None else case.values.dtype,
            case.keys.size)
        groups, _ = plan_chunks(case.keys.size, len(gpu_ids), capacity)
        assert len(groups) >= OUT_OF_CORE_GROUPS, describe_case(case)


def test_seeds_cover_every_sort_dtype_and_payload():
    cases = [case_for_seed(seed) for seed in SEEDS]
    assert {case.sort for case in cases} == set(SORTS)
    assert {case.keys.dtype.name for case in cases} >= {
        "int8", "int16", "int32", "int64", "float32", "float64"}
    assert any(case.values is not None for case in cases)
    assert any(case.keys.size % case.gpus for case in cases)
    floats = np.concatenate([case.keys.view(np.uint32) for case in cases
                             if case.keys.dtype == np.float32])
    for pattern in (0x80000000, 0xFFC00001, 0x7F800000, 0xFF800000):
        assert pattern in floats


def test_supervised_cases_cover_both_drivers_with_payloads():
    cases = [case_for_seed(seed) for seed in SEEDS
             if case_for_seed(seed).sort == "supervised"]
    assert {(supervised_algorithm(case), case.values is not None)
            for case in cases} == {("p2p", False), ("p2p", True),
                                   ("het", False), ("het", True)}


def test_same_seed_same_case():
    a, b = case_for_seed(17), case_for_seed(17)
    assert (a.sort, a.gpus) == (b.sort, b.gpus)
    assert np.array_equal(a.keys.view(np.uint8), b.keys.view(np.uint8))


def test_contract_catches_a_canonicalized_nan():
    keys = np.array([0xFFC00001, 0x3F800000], np.uint32).view(np.float32)
    case = InputCase(seed=0, sort="p2p", gpus=2, keys=keys)
    canonical = np.array([1.0, np.nan], np.float32)
    assert "bit-level" in contract_problems(case, canonical, None)
    assert contract_problems(case, keys[::-1].copy(), None) == ""


def test_contract_catches_a_lost_record():
    keys = np.array([1, 1, 2], np.int32)
    values = np.array([0, 1, 2], np.int64)
    case = InputCase(seed=0, sort="p2p", gpus=2, keys=keys, values=values)
    assert contract_problems(case, keys, np.array([1, 0, 2])) == ""
    assert "records" in contract_problems(case, keys, np.array([0, 0, 2]))


def test_shrink_reaches_a_minimal_input():
    keys = np.arange(64, dtype=np.int32)
    case = InputCase(seed=0, sort="p2p", gpus=2, keys=keys,
                     values=np.arange(64, dtype=np.int64))
    minimal = shrink(case, failing=lambda c: 37 in c.keys)
    assert minimal.values is None
    assert minimal.keys.tolist() == [37]
    assert "sort=p2p" in describe_case(minimal)
