"""The input fuzzer: 400 seeded special-value inputs against every sort.

Every case must come out in NumPy's sort order as a bit-level
permutation of its input (records included); any crash or wrong output
is shrunk to a minimal failing input and printed.
"""

import numpy as np
import pytest

from tests.sort.input_fuzzer import (
    SORTS,
    InputCase,
    case_for_seed,
    contract_problems,
    describe_case,
    run_case,
    shrink,
)

SEEDS = range(400)


@pytest.mark.parametrize("seed", SEEDS)
def test_input_case(seed):
    case = case_for_seed(seed)
    outcome = run_case(case)
    if outcome.failed:
        minimal = shrink(case)
        pytest.fail(
            f"input seed {seed} {outcome.status}: {outcome.detail}\n"
            f"minimal failing case:\n{describe_case(minimal)}")


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
