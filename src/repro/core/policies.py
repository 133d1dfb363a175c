"""Write-policy algebra (Table III).

A :class:`WritePolicy` captures one column of the paper's evaluation matrix,
e.g. ``BE-Mellow+SC+WQ`` = Bank-Aware + Eager Mellow Writes, slow writes
cancellable, Wear Quota on.  ``parse_policy`` understands the paper's naming
scheme so experiment code can say exactly what the figures say.

Policy semantics:

* ``Norm``      - every write at 1.0x latency.
* ``Slow``      - every write at the slow factor (default 3.0x).
* ``B-Mellow``  - Bank-Aware Mellow Writes: a write issues slow iff it is
  the only request queued for its bank.
* ``E-``        - eager writebacks from the LLC are enabled (useless dirty
  lines stream out through the Eager Mellow Queue).  ``E-Norm`` issues eager
  writes at normal speed (the paper's performance-at-all-costs point);
  every other eager-enabled policy issues them slow.
* ``BE-Mellow`` - both Bank-Aware and Eager.
* ``+NC`` / ``+SC`` - normal-speed / slow-speed writes are cancellable when
  a read arrives for the same bank.
* ``+WQ``       - Wear Quota lifetime guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro import params


@dataclass(frozen=True)
class WritePolicy:
    """One memory write policy from Table III."""

    name: str
    bank_aware: bool = False
    eager: bool = False
    all_slow: bool = False
    eager_slow: bool = True
    cancel_normal: bool = False
    cancel_slow: bool = False
    wear_quota: bool = False
    pausing: bool = False
    multi_latency: bool = False
    mid_factor: float = 1.5
    slow_factor: float = params.SLOW_FACTOR_DEFAULT

    def __post_init__(self) -> None:
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1.0")
        if self.multi_latency:
            if not 1.0 <= self.mid_factor <= self.slow_factor:
                raise ValueError("need 1.0 <= mid_factor <= slow_factor")
            if not self.bank_aware:
                raise ValueError("multi-latency requires a Bank-Aware policy")
        if self.all_slow and self.bank_aware:
            raise ValueError("Slow and B-Mellow are mutually exclusive")
        if self.pausing and not (self.cancel_normal or self.cancel_slow):
            raise ValueError(
                "write pausing (+WP) needs interruptible writes (+NC/+SC)"
            )

    @property
    def uses_slow_writes(self) -> bool:
        """Whether this policy can ever issue a slow write."""
        return (
            self.all_slow
            or self.bank_aware
            or self.wear_quota
            or (self.eager and self.eager_slow)
        )

    def cancellable(self, slow: bool) -> bool:
        """Whether a write issued at this speed may be cancelled by a read."""
        return self.cancel_slow if slow else self.cancel_normal


# Base-scheme templates; parse_policy stamps the requested name, slow
# factor, and suffix toggles onto a copy via dataclasses.replace.
_BASE_POLICIES: Dict[str, WritePolicy] = {
    "norm": WritePolicy(name="Norm"),
    "slow": WritePolicy(name="Slow", all_slow=True),
    "b-mellow": WritePolicy(name="B-Mellow", bank_aware=True),
    "be-mellow": WritePolicy(name="BE-Mellow", bank_aware=True, eager=True),
    "e-norm": WritePolicy(name="E-Norm", eager=True, eager_slow=False),
    "e-slow": WritePolicy(name="E-Slow", all_slow=True, eager=True),
}


def parse_policy(name: str, slow_factor: float = params.SLOW_FACTOR_DEFAULT) -> WritePolicy:
    """Parse a Table III policy name like ``"BE-Mellow+SC+WQ"``.

    The base name selects the write scheme; ``+NC``/``+SC``/``+WQ`` suffixes
    toggle cancellation and Wear Quota.  Parsing is case-insensitive.
    """
    parts = name.strip().split("+")
    base = parts[0].strip().lower()
    if base not in _BASE_POLICIES:
        known = ", ".join(sorted(_BASE_POLICIES))
        raise ValueError(f"unknown base policy {parts[0]!r} (known: {known})")
    cancel_normal = cancel_slow = wear_quota = False
    pausing = multi_latency = False
    for suffix in parts[1:]:
        suffix = suffix.strip().upper()
        if suffix == "NC":
            cancel_normal = True
        elif suffix == "SC":
            cancel_slow = True
        elif suffix == "WQ":
            wear_quota = True
        elif suffix == "WP":
            # Write pausing (Qureshi et al., HPCA 2010): an interrupted
            # write keeps its progress and resumes later instead of
            # restarting from scratch.
            pausing = True
        elif suffix == "ML":
            # Multi-latency Mellow Writes (the Section VI-I future-work
            # extension): a mild 1.5x slowdown for lightly-contended banks.
            multi_latency = True
        else:
            raise ValueError(f"unknown policy suffix {suffix!r}")
    return replace(
        _BASE_POLICIES[base],
        name=name,
        slow_factor=slow_factor,
        cancel_normal=cancel_normal,
        cancel_slow=cancel_slow,
        wear_quota=wear_quota,
        pausing=pausing,
        multi_latency=multi_latency,
    )


# The policy set evaluated in Figures 10-16.
PAPER_POLICY_NAMES = (
    "Norm",
    "E-Norm+NC",
    "Slow+SC",
    "E-Slow+SC",
    "B-Mellow+SC",
    "BE-Mellow+SC",
    "Norm+WQ",
    "B-Mellow+SC+WQ",
    "BE-Mellow+SC+WQ",
)


def paper_policies(
    slow_factor: float = params.SLOW_FACTOR_DEFAULT,
) -> List[WritePolicy]:
    """The full evaluated policy list, parsed."""
    return [parse_policy(n, slow_factor) for n in PAPER_POLICY_NAMES]
