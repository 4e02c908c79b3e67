import signal
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# the slowest test takes a few seconds; one that loops fails here instead of
# holding the whole run until an outer timeout kills it
TEST_SECONDS = 60


def _expired(signum, frame):
    raise TimeoutError(f"test ran past {TEST_SECONDS} s")


@pytest.fixture(autouse=True)
def _time_bound():
    if not hasattr(signal, "setitimer"):  # not on Windows
        yield
        return
    handler = signal.signal(signal.SIGALRM, _expired)
    timer = signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)
