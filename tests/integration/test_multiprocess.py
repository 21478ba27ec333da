"""Integration: Cores as separate OS processes, talking real TCP.

``CoreProcesses`` runs each named Core in a process of its own, forked
from the deployment's template process (``python -m
repro.cluster.launch --template``), and keeps a driver Core in this
process on its own hub.  Everything below — remote instantiation,
invocation, movement, admin — crosses genuine process and socket
boundaries.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cluster import CoreProcesses
from tests.anchors import Failing, Holder, Probe
from tests.procfs import is_running, parent_of

pytestmark = pytest.mark.tcp


@pytest.fixture(scope="module")
def procs():
    with CoreProcesses(["alpha", "beta"]) as deployment:
        yield deployment


def hosted_at(procs: CoreProcesses, core_name: str) -> set[str]:
    return set(procs.driver.admin(core_name, "complets"))


class TestAcrossProcesses:
    def test_children_are_separate_processes(self, procs):
        pids = {process.pid for process in procs.processes.values()}
        assert len(pids) == 2
        assert os.getpid() not in pids
        for process in procs.processes.values():
            assert process.poll() is None  # still serving

    def test_remote_instantiation_and_invocation(self, procs):
        probe = Probe(_core=procs.driver, _at="alpha")
        probe.note("hello-from-driver")
        assert "hello-from-driver" in probe.get_history()
        assert str(probe._fargo_target_id) in hosted_at(procs, "alpha")

    def test_movement_between_processes(self, procs):
        probe = Probe(_core=procs.driver, _at="alpha")
        procs.driver.move(probe, "beta")
        assert str(probe._fargo_target_id) in hosted_at(procs, "beta")
        assert str(probe._fargo_target_id) not in hosted_at(procs, "alpha")
        history = probe.get_history()
        assert "pre_departure:beta" in history
        assert "post_arrival:beta" in history

    def test_state_travels_with_the_complet(self, procs):
        probe = Probe(_core=procs.driver, _at="alpha")
        probe.note("before-move")
        procs.driver.move(probe, "beta")
        probe.note("after-move")
        history = probe.get_history()
        assert "before-move" in history and "after-move" in history

    def test_application_exception_crosses_the_socket(self, procs):
        failing = Failing(_core=procs.driver, _at="beta")
        with pytest.raises(ValueError, match="boom"):
            failing.boom()

    def test_reference_passing_between_children(self, procs):
        """A stub handed from the driver works from another child."""
        probe = Probe(_core=procs.driver, _at="alpha")
        holder = Holder(_core=procs.driver, _at="beta")
        holder.set_ref(probe)
        holder.get_ref().note("beta-held")
        assert "beta-held" in probe.get_history()

    def test_admin_snapshot(self, procs):
        snapshot = procs.driver.admin("alpha", "snapshot")
        assert snapshot["core"] == "alpha"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads Linux /proc")
def test_no_core_outlives_a_killed_driver():
    """SIGKILL runs no ``stop()``: the template notices the hang-up instead."""
    driving_program = (
        "import time\n"
        "from repro.cluster import CoreProcesses\n"
        "procs = CoreProcesses(['alpha', 'beta']).start()\n"
        "print(*(child.pid for child in procs.processes.values()), flush=True)\n"
        "time.sleep(60)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    driver = subprocess.Popen(
        [sys.executable, "-c", driving_program], stdout=subprocess.PIPE, text=True, env=env
    )
    pids: list[int] = []
    try:
        pids += [int(pid) for pid in driver.stdout.readline().split()]
        assert len(pids) == 2
        pids.append(parent_of(pids[0]))  # the template
        assert all(is_running(pid) for pid in pids)
        driver.kill()
        driver.wait(timeout=5.0)
        deadline = time.monotonic() + 2.0
        while any(is_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert [pid for pid in pids if is_running(pid)] == []
    finally:
        driver.kill()
        driver.wait(timeout=5.0)
        driver.stdout.close()
        for pid in filter(is_running, pids):  # only a failed run leaves any
            os.kill(pid, signal.SIGKILL)
