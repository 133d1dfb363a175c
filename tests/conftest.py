"""Suite-wide pytest configuration.

Hypothesis deadlines are wall-clock, so any instrumentation that slows
execution uniformly - coverage tracing, sanitizers, busy CI runners -
turns healthy property tests into flaky DeadlineExceeded failures.
Example count stays per-test; only the per-example stopwatch goes.

With ``REPRO_TEST_DURATIONS`` set to a path, the session writes every
test phase's duration there as JSON, slowest first: the
``[seconds, phase, test id]`` rows ``--durations`` prints.  CI's
tier-1 wall-time gate sums the slowest of them.
"""

import json
import os

try:
    from hypothesis import settings
except ImportError:        # hypothesis is a test extra; don't require it
    pass                   # just to collect non-property tests
else:
    settings.register_profile("repro", deadline=None)
    settings.load_profile("repro")


_DURATIONS_PATH = os.environ.get("REPRO_TEST_DURATIONS")
_durations = []


def pytest_runtest_logreport(report):
    if _DURATIONS_PATH:
        _durations.append([report.duration, report.when, report.nodeid])


def pytest_sessionfinish(session, exitstatus):
    if _DURATIONS_PATH:
        with open(_DURATIONS_PATH, "w") as handle:
            json.dump(sorted(_durations, reverse=True), handle, indent=0)
