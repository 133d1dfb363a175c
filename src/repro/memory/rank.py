"""Rank-level tFAW activation limiter.

At most ``t_faw_activates`` row activations may start within any sliding
``t_faw_ns`` window per rank.  ``activate`` delays a row activation to the
earliest time the window allows and logs it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro import params


class RankFawLimiter:
    def __init__(
        self,
        t_faw_ns: float = params.T_FAW_NS,
        max_activates: int = params.T_FAW_ACTIVATES,
    ) -> None:
        if max_activates < 1:
            raise ValueError("max_activates must be >= 1")
        if t_faw_ns <= 0:
            raise ValueError("t_faw_ns must be positive")
        self.t_faw_ns = t_faw_ns
        self.max_activates = max_activates
        self._recent: Deque[float] = deque()

    def activate(self, now: float) -> float:   # simlint: hotpath
        """Log an activation at the earliest time >= ``now`` it may
        start, and return that time.

        The window is pruned at ``now``; when it is full, the start is
        delayed to the oldest activation's exit (``+ t_faw_ns``) and the
        window pruned again there.  The second prune reaches at least
        that oldest activation: ``(oldest + t_faw_ns) - t_faw_ns`` can
        round below ``oldest``, which would keep it in the window at its
        own exit time.  The limiter still raises rather than exceed tFAW
        if the window stays full.
        """
        recent = self._recent
        t_faw = self.t_faw_ns
        horizon = now - t_faw
        while recent and recent[0] <= horizon:
            recent.popleft()
        if len(recent) >= self.max_activates:
            oldest = recent[0]
            now = oldest + t_faw
            horizon = now - t_faw
            if horizon < oldest:
                horizon = oldest
            while recent and recent[0] <= horizon:
                recent.popleft()
            if len(recent) >= self.max_activates:
                raise RuntimeError(
                    "tFAW violated: too many activates in window")
        recent.append(now)
        return now
