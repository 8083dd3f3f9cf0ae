"""Rank-merge oracle for the linear run merge.

The merge this repository shipped before its run merge: every element's
output position computed by binary search in the other run, then one
scatter.  It is O(n log n) but has no sequential state, which makes it
the oracle the linear merges are held element-identical to.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def merge_positions(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray,
                                                           np.ndarray]:
    """Output positions of every ``a`` and ``b`` element in their merge.

    Element ``a[i]`` lands at ``i +`` (number of ``b`` elements strictly
    before it); ``b[j]`` at ``j +`` (number of ``a`` elements at or
    before it).  Ties resolve in favour of ``a`` — the usual stable
    merge convention.  The positions double as the payload permutation
    for key-value merging.
    """
    pos_a = np.arange(a.size) + np.searchsorted(b, a, side="left")
    pos_b = np.arange(b.size) + np.searchsorted(a, b, side="right")
    return pos_a, pos_b


def rank_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable merge of sorted ``a`` and ``b`` by output rank."""
    pos_a, pos_b = merge_positions(a, b)
    out = np.empty(a.size + b.size, dtype=a.dtype)
    out[pos_a] = a
    out[pos_b] = b
    return out


def rank_merge_with_values(a: np.ndarray, b: np.ndarray, va: np.ndarray,
                           vb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Key-value :func:`rank_merge`: payloads follow their keys."""
    pos_a, pos_b = merge_positions(a, b)
    keys = np.empty(a.size + b.size, dtype=a.dtype)
    values = np.empty(va.size + vb.size, dtype=va.dtype)
    keys[pos_a] = a
    keys[pos_b] = b
    values[pos_a] = va
    values[pos_b] = vb
    return keys, values
