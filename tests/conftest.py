"""Checks that hold for the whole test session."""
import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left():
    """Fail the run if any test leaves a forked child behind, running or
    exited and unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a test left a child process behind ({'running' if pid == 0 else pid})")
