"""Endurance modeling: the analytic latency/endurance trade-off,
wear tracking and lifetime, Start-Gap and its leveling-efficiency check,
Flip-N-Write, and process-variation/ECC order statistics."""
