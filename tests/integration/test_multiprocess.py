"""Integration: a multi-process deployment and the driver that dies on it.

What a program does across OS processes (remote instantiation,
invocation, movement, reference passing, admin) is the ``procs`` leg of
``test_transport_matrix.py``; what the launcher's child handles are is
``tests/cluster/test_launch.py``.  Left here is the one case that needs
a driver of its own to kill.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from tests.procfs import is_running, parent_of

pytestmark = pytest.mark.tcp


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
