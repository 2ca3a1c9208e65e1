import os

import pytest

from gradednn import ioutil


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


@pytest.fixture
def fork_counter(monkeypatch):
    """fork_counter(cpus) reports `cpus` usable CPUs to the commands that
    split their work with a forked child and returns the list their forks
    are recorded in, one pid per fork; each call starts a new list."""
    real_fork = os.fork

    def count_forks(cpus):
        monkeypatch.setattr(ioutil, "_usable_cpus", lambda: cpus)
        forks = []

        def fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return forks

    return count_forks


def pytest_runtest_logreport(report):
    # one visible line per acceptance criterion, pass or fail
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    print("\n[criterion] %s: %s" % (name, "PASS" if report.passed else "FAIL"))
