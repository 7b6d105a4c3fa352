"""Per-chain upgrade tables.

For a chain with ``beta`` edges, ``g(eps, k)`` is the largest total chain
length achievable by upgrading exactly ``k`` of its upgradable nodes, where
``eps`` records whether the chain's top junction is one of them. Upgrading
the top raises the first edge; upgrading an interior node raises the edge
below it. With the tail sorted by gain, the best interior picks are always
a prefix, so the whole table is two running prefix sums:

    g(0, k) = w_sum + (k largest tail gains)          0 <= k <= min(beta-1, K)
    g(1, k) = w_sum + head gain + (k-1 largest tail gains)
                                                      1 <= k <= min(beta, K)

Only beta-1 tail edges exist, hence the tighter eps=0 bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import Chain


@dataclass(frozen=True)
class ChainTable:
    """Dense g-values for one chain under a budget: ``g0[k]`` holds
    g(0, k); ``g1[i]`` holds g(1, i+1). The upgrade set of a cell is
    :meth:`Chain.upgrade_set`."""

    g0: np.ndarray
    g1: np.ndarray


def chain_g_table(chain: Chain, budget: int) -> ChainTable:
    """Build both g rows incrementally in O(beta)."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    tail_prefix = np.concatenate(
        ([0], np.cumsum(np.asarray(chain.tail_deltas, dtype=np.int64))))
    g0 = chain.w_sum + tail_prefix[: min(chain.beta - 1, budget) + 1]
    g1 = chain.w_sum + chain.head_delta + tail_prefix[: min(chain.beta, budget)]
    return ChainTable(g0=g0.astype(np.int64), g1=g1.astype(np.int64))
