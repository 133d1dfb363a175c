"""Write-verify outcomes, in escalation order.

:meth:`repro.faults.injector.FaultInjector.verify_write` returns one of
these and the memory controller acts on it; they live apart from the
injector so the controller can name them without importing it.
"""

WRITE_OK = "ok"
WRITE_RETRY = "retry"
WRITE_CORRECTED = "corrected"
WRITE_RETIRED = "retired"
WRITE_FATAL = "fatal"
