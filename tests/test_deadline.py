"""The per-test deadline (`conftest.deadline`): a test that runs too long
fails by name instead of hanging the suite."""

import re
import signal

import pytest

from conftest import DEADLINE_S, DeadlineExceeded, deadline


def test_every_test_runs_under_the_deadline():
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= DEADLINE_S


def test_a_block_past_its_deadline_fails_by_name(request):
    """A loop that never ends, behind an ``except Exception``, is stopped by
    the deadline, which names the test; the test's own deadline is then
    armed again."""
    with pytest.raises(DeadlineExceeded, match=re.escape(request.node.nodeid)):
        with deadline(0.05, request.node.nodeid):
            try:
                while True:
                    pass
            except Exception:
                pytest.fail("the deadline was caught as an Exception")
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= DEADLINE_S
