"""The fork-server launcher: the child handle, and what a fork must not share.

``CoreProcesses`` starts one template process and has it fork every
child Core.  The children are therefore not the driver's own, and the
handle in ``processes`` stands in for what ``subprocess`` would have
given; the first class checks the part of that surface deployments use.
The second checks, through ``/proc``, what each child keeps and drops of
the template it was forked from.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import threading

import pytest

from repro.cluster import CoreProcesses
from repro.cluster import launch
from repro.cluster.supervisor import describe_exit
from repro.errors import ConfigurationError, CoreError
from tests.procfs import catches, is_running, open_files, parent_of

pytestmark = [
    pytest.mark.tcp,
    pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads Linux /proc"),
]


@pytest.fixture()
def procs():
    with CoreProcesses(["alpha", "beta"]) as deployment:
        yield deployment


class TestChildHandle:
    def test_sigkill_is_reported_as_minus_nine(self, procs):
        child = procs.processes["alpha"]
        assert child.poll() is None
        os.kill(child.pid, signal.SIGKILL)
        assert child.wait(timeout=5.0) == -9
        assert child.poll() == -9 and child.returncode == -9
        assert describe_exit(child.returncode) == "signal SIGKILL"

    def test_wait_on_a_live_child_times_out(self, procs):
        with pytest.raises(subprocess.TimeoutExpired):
            procs.processes["alpha"].wait(timeout=0.05)
        assert procs.processes["alpha"].poll() is None

    def test_children_share_one_parent_that_is_not_the_driver(self, procs):
        parents = {parent_of(child.pid) for child in procs.processes.values()}
        assert len(parents) == 1
        assert os.getpid() not in parents
        assert parent_of(parents.pop()) == os.getpid()  # the template is the driver's

    def test_respawn_comes_from_the_same_template(self, tmp_path):
        with CoreProcesses(["alpha", "beta"], checkpoint_dir=str(tmp_path)) as procs:
            old = procs.processes["alpha"]
            template = parent_of(old.pid)
            old.kill()
            assert old.wait(timeout=5.0) == -9
            new = procs.spawn_child("alpha", recover=True)
            procs.await_child("alpha", restored=True)  # reads the successor's READY
            assert new is procs.processes["alpha"]
            assert new.pid != old.pid
            assert parent_of(new.pid) == template
            assert old.stdout.closed and old.stderr.closed
            assert procs.driver.admin("alpha", "complets") == []

    def test_stop_leaves_no_process_and_no_descriptor(self):
        before = len(os.listdir("/proc/self/fd"))
        procs = CoreProcesses(["alpha", "beta"]).start()
        pids = [child.pid for child in procs.processes.values()]
        pids.append(parent_of(pids[0]))
        assert all(is_running(pid) for pid in pids)
        procs.stop()
        assert not any(is_running(pid) for pid in pids)
        assert procs.processes == {}
        assert len(os.listdir("/proc/self/fd")) == before


class TestForkHygiene:
    def test_a_child_holds_nothing_of_the_template_or_a_sibling(self, procs):
        alpha, beta = (procs.processes[name].pid for name in ("alpha", "beta"))
        template = parent_of(alpha)
        # The control socket and the wake-up pair are the template's only sockets.
        assert open_files(template, "socket")
        assert not open_files(template, "socket") & open_files(alpha, "socket")
        assert not open_files(alpha, "pipe") & open_files(beta, "pipe")
        # The template kept no end of a child's pipes (its own stderr is one).
        assert not open_files(template, "pipe") & open_files(alpha, "pipe")

    def test_a_child_writes_to_its_own_pipes(self, procs):
        child = procs.processes["alpha"]
        for fd, ours in ((1, child.stdout), (2, child.stderr)):
            assert os.readlink(f"/proc/{child.pid}/fd/{fd}") == os.readlink(
                f"/proc/self/fd/{ours.fileno()}"
            )

    def test_a_child_has_default_signal_handling(self, procs):
        child = procs.processes["alpha"]
        template = parent_of(child.pid)
        for signum in (signal.SIGCHLD, signal.SIGTERM):
            assert catches(template, signum)
            assert not catches(child.pid, signum)
        os.kill(child.pid, signal.SIGTERM)
        assert child.wait(timeout=5.0) == -signal.SIGTERM

    def test_a_dead_childs_stdout_ends_while_its_sibling_lives(self, procs):
        alpha, beta = procs.processes["alpha"], procs.processes["beta"]
        assert alpha.stdout.readline().startswith(launch.READY_PREFIX)
        alpha.kill()
        # End of file needs every write end closed: beta and the template hold none.
        assert select.select([alpha.stdout], [], [], 5.0)[0]
        assert alpha.stdout.readline() == ""
        assert beta.poll() is None
        assert procs.driver.admin("beta", "complets") == []

    def test_a_child_that_cannot_bind_fails_start_with_its_stderr(self, monkeypatch):
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen()
            taken = squatter.getsockname()[1]
            reserve = launch.free_ports

            def with_a_taken_port(host, count):
                return [taken, *reserve(host, count - 1)]

            monkeypatch.setattr(launch, "free_ports", with_a_taken_port)
            procs = CoreProcesses(["alpha"])
            with pytest.raises(CoreError, match="(?s)alpha.*exited with status 1.*in use"):
                procs.start()
        assert procs.processes == {} and procs.driver is None

    def test_fork_is_refused_while_another_thread_runs(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
        try:
            with pytest.raises(CoreError, match="threads"):
                launch._fork_child({}, -1, -1, ())
        finally:
            release.set()
            thread.join(5.0)

    def test_a_threaded_template_answers_with_an_error(self):
        """The driver gets the refusal as a typed error, and at once."""
        threaded = (
            "import sys, threading, time\n"
            "threading.Thread(target=time.sleep, args=(60,), daemon=True).start()\n"
            "from repro.cluster.launch import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        template = launch._Template([sys.executable, "-c", threaded], env)
        try:
            spec = {"name": "alpha", "port": 0, "peers": {}}
            for _ in range(2):  # it refuses, and goes on serving
                with pytest.raises(CoreError, match="alpha.*forks only while it runs one"):
                    template.spawn(spec, timeout=20.0)
            assert template.process.poll() is None
        finally:
            template.close(5.0)
        assert template.process.returncode == 0

    def test_no_fork_no_deployment(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        procs = CoreProcesses(["alpha"])
        with pytest.raises(ConfigurationError, match="os.fork"):
            procs.start()
        assert procs.addresses == {} and procs.processes == {}
