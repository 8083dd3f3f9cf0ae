"""Tournament loser tree for k-way merging.

The loser tree keeps the *losers* of a knockout tournament in its inner
nodes and the overall winner at the root.  Replacing the winner and
replaying only its root-to-leaf path costs exactly ``log2(k)``
comparisons per extracted element — the property that makes
``gnu_parallel::multiway_merge`` optimal and the reason the paper picks
it for HET sort's merge phase (Section 5.3: heap-based merges need
``2 * log(k)`` comparisons, the loser tree exactly ``log(k)``).
"""

from __future__ import annotations

from typing import Any, List, Sequence


class LoserTree:
    """A loser tree over ``k`` input runs.

    Drive it through :meth:`winner` and :meth:`replace_winner`; or use
    :func:`tests.refprims.multiway_merge.multiway_merge_losertree` for
    whole-array merging.

    Exhausted runs are represented by an internal sentinel that loses
    against every key, so the tree needs no special-casing as runs dry
    up.
    """

    _SENTINEL = object()

    def __init__(self, first_keys: Sequence[Any]):
        if not first_keys:
            raise ValueError("a loser tree needs at least one run")
        self.k = len(first_keys)
        # Leaves hold the current head key of each run.
        self._leaves: List[Any] = list(first_keys)
        # Inner nodes hold run indices of path losers; node 0 the winner.
        self._nodes: List[int] = [-1] * self.k
        self._build()

    # -- comparisons with the exhausted sentinel ---------------------------
    @classmethod
    def _beats(cls, a: Any, b: Any) -> bool:
        """Whether key ``a`` wins (is merged before) key ``b``."""
        if a is cls._SENTINEL:
            return False
        if b is cls._SENTINEL:
            return True
        return a <= b

    def _build(self) -> None:
        """Play the full tournament once, storing losers in inner nodes.

        Leaf ``i`` sits at tree position ``k + i``; inner nodes occupy
        positions ``1 .. k-1``; position 0 holds the overall winner.
        """
        if self.k == 1:
            self._nodes[0] = 0
            return

        def play(node: int) -> int:
            if node >= self.k:
                return node - self.k
            left = play(2 * node)
            right = play(2 * node + 1)
            if self._beats(self._leaves[left], self._leaves[right]):
                winner, loser = left, right
            else:
                winner, loser = right, left
            self._nodes[node] = loser
            return winner

        self._nodes[0] = play(1)

    @property
    def winner(self) -> int:
        """Index of the run whose head key is currently smallest."""
        return self._nodes[0]

    @property
    def winner_key(self) -> Any:
        """The smallest current head key (undefined when exhausted)."""
        return self._leaves[self._nodes[0]]

    @property
    def exhausted(self) -> bool:
        """Whether every run has run dry."""
        return self._leaves[self._nodes[0]] is self._SENTINEL

    def replace_winner(self, key: Any) -> None:
        """Replace the winner's key with its run's next key and replay.

        Exactly ``ceil(log2(k))`` comparisons.
        """
        run = self._nodes[0]
        self._leaves[run] = key
        node = (run + self.k) // 2
        winner = run
        while node > 0:
            loser = self._nodes[node]
            if self._beats(self._leaves[loser], self._leaves[winner]):
                self._nodes[node] = winner
                winner = loser
            node //= 2
        self._nodes[0] = winner

    def exhaust_winner(self) -> None:
        """Mark the winner's run as dry and replay."""
        self.replace_winner(self._SENTINEL)
