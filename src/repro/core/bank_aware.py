"""Bank-Aware Mellow Writes (Section IV-A).

The scheme makes its decision at bank granularity: a write request may be
issued as a slow write only when there are no *other* operations (reads or
writes) queued for the same bank.  Reads always have priority over writes,
so by the time a write is selected for issue its bank has no queued reads;
the remaining condition is therefore "no other write queued for this bank".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from repro.telemetry.metrics import Counter


def bank_aware_wants_slow(other_writes_for_bank: int, reads_for_bank: int,
                          verdicts: Optional[Sequence[Counter]] = None,
                          ) -> bool:
    """Decide whether Bank-Aware Mellow Writes issues this write slowly.

    Args:
        other_writes_for_bank: write-queue requests for the same bank,
            excluding the write being issued (Figure 5: a second waiting
            write forces normal speed to keep drain pressure down).
        reads_for_bank: read-queue requests for the same bank.  Under
            read-priority scheduling this is zero whenever a write is
            actually selected, but the predicate checks it anyway so it can
            be used standalone (Figure 4 shows both conditions).
        verdicts: with telemetry enabled, the ``(normal, slow)`` decision
            counters (``decision.bank_aware.normal`` /
            ``decision.bank_aware.slow``), resolved once by the caller;
            the one matching the outcome is bumped so the slow-vs-fast mix
            can be plotted per epoch.
    """
    if other_writes_for_bank < 0 or reads_for_bank < 0:
        raise ValueError("request counts cannot be negative")
    wants_slow = other_writes_for_bank == 0 and reads_for_bank == 0
    if verdicts is not None:
        verdicts[wants_slow].value += 1.0
    return wants_slow
