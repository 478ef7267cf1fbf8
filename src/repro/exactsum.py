"""Exactly-rounded float summation (Shewchuk non-overlapping partials).

One leaf module, imported by both the replay engines (``repro.sim``)
and the metrics registry (``repro.obs``), so every exact sum in the
repo — per-sweep-point ``lease_seconds`` and shard-merged histogram
sums — goes through the same fold.
"""

from __future__ import annotations

import math
from typing import List, Sequence

__all__ = ["ExactSum"]


class ExactSum:
    """An order-independent exact float accumulator (Shewchuk partials).

    The running sum is kept as a list of non-overlapping partials whose
    mathematical sum is *exact*; :meth:`value` rounds it once, so two
    accumulators fed the same multiset of terms in different orders
    return bit-identical floats — the property that lets the pair-grouped
    engine match the event-ordered oracle's ``math.fsum`` exactly.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: List[float] = []

    def add(self, x: float) -> None:
        """Fold one finite term into the exact running sum."""
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def add_all(self, terms: Sequence[float]) -> None:
        """Fold a batch of terms."""
        for term in terms:
            self.add(term)

    def value(self) -> float:
        """The correctly-rounded float value of the exact sum."""
        return math.fsum(self._partials)

    def partials(self) -> List[float]:
        """A copy of the non-overlapping partials.

        Their mathematical sum *is* the accumulated sum, exactly —
        feeding them to another accumulator (:meth:`add_all`) merges
        two sums with no rounding at all, which is how the sharded
        engine (:mod:`repro.sim.shard`) combines per-shard
        ``lease_seconds`` bit-identically to a single-shard run.
        """
        return list(self._partials)
