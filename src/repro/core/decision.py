"""The Figure-9 write-speed decision tree.

For each bank the controller looks for a write to perform:

* single request in the write queue            -> slow write;
* multiple requests, Wear Quota exceeded       -> slow write;
* multiple requests, quota fine                -> normal write;
* no write-queue request, eager request exists -> slow write (from the
  Eager Mellow Queue).

Static policies short-circuit the tree: ``Slow`` always returns slow,
``Norm`` always normal (except when +WQ gates the bank).  ``E-Norm`` issues
even eager writes at normal speed (its design point is maximum performance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.bank_aware import bank_aware_wants_slow
from repro.core.policies import WritePolicy
from repro.memory.queues import EAGER, WRITE

if TYPE_CHECKING:
    from repro.telemetry.metrics import Counter


def choose_write_factor(
    policy: WritePolicy,
    kind: str,
    other_writes_for_bank: int,
    reads_for_bank: int,
    quota_exceeded: bool,
    verdicts: Optional[Sequence[Counter]] = None,
) -> float:
    """Slowdown factor for the write being issued (1.0 = normal speed).

    The binary policies return either 1.0 or ``policy.slow_factor``.  With
    ``multi_latency`` (the paper's Section VI-I future work), a bank with
    exactly one other queued write gets the intermediate ``mid_factor``
    instead of dropping straight to normal speed.
    """
    slow = choose_write_speed(
        policy, kind, other_writes_for_bank, reads_for_bank, quota_exceeded,
        verdicts,
    )
    if slow:
        return policy.slow_factor
    if (
        policy.multi_latency
        and kind == WRITE
        and other_writes_for_bank == 1
        and reads_for_bank == 0
    ):
        return policy.mid_factor
    return 1.0


def choose_write_speed(
    policy: WritePolicy,
    kind: str,
    other_writes_for_bank: int,
    reads_for_bank: int,
    quota_exceeded: bool,
    verdicts: Optional[Sequence[Counter]] = None,
) -> bool:
    """Return True when the write should be issued slow.

    Args:
        policy: the active write policy.
        kind: WRITE (from the write queue) or EAGER (from the eager queue).
        other_writes_for_bank: same-bank write-queue occupancy excluding the
            request being issued.
        reads_for_bank: same-bank read-queue occupancy.
        quota_exceeded: Wear Quota slow-only gate for the bank (only honoured
            when the policy enables +WQ).
        verdicts: the Bank-Aware ``(normal, slow)`` decision counters,
            passed through to the predicate so its decision mix is counted
            when telemetry is enabled.
    """
    if kind == EAGER:
        if not policy.eager:
            raise ValueError("eager request under a non-eager policy")
        return policy.eager_slow
    if kind != WRITE:
        raise ValueError(f"not a write kind: {kind!r}")

    if policy.all_slow:
        return True
    if policy.wear_quota and quota_exceeded:
        return True
    if policy.bank_aware:
        return bank_aware_wants_slow(other_writes_for_bank, reads_for_bank,
                                     verdicts)
    return False
