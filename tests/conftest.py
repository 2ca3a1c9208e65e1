import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test must wait for every process it starts: a child still running,
    or exited and not waited for, fails the test."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind: waitpid gave %r" % (left,))


def pytest_runtest_logreport(report):
    # one visible line per acceptance criterion, pass or fail
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    print("\n[criterion] %s: %s" % (name, "PASS" if report.passed else "FAIL"))
