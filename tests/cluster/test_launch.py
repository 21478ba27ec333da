"""The fork-server launcher: the child handle, and what a fork must not share.

``CoreProcesses`` has the process's one template process fork every
child Core.  The children are therefore not the driver's own, and the
handle in ``processes`` stands in for what ``subprocess`` would have
given; the first class checks the part of that surface deployments use.
The second checks, through ``/proc``, what each child keeps and drops of
the template it was forked from; the third, what deployments that share
the template may and may not share with it; the fourth, that the
template imports what a child would, so that the child imports nothing.
"""

from __future__ import annotations

import importlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster import CoreProcesses
from repro.cluster import launch
from repro.cluster.supervisor import describe_exit
from repro.errors import ConfigurationError, CoreError
from tests import anchors
from tests.procfs import catches, children_of, is_running, open_files, parent_of

pytestmark = [
    pytest.mark.tcp,
    pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads Linux /proc"),
]


@pytest.fixture()
def procs():
    with CoreProcesses(["alpha", "beta"]) as deployment:
        yield deployment


def template_of(procs: CoreProcesses) -> int:
    """The pid of the process ``procs``' children were forked from."""
    parents = {parent_of(child.pid) for child in procs.processes.values()}
    assert len(parents) == 1
    return parents.pop()


def gone_within(pids, seconds: float) -> bool:
    """Whether none of ``pids`` is running any more, ``seconds`` from now at the latest."""
    deadline = time.monotonic() + seconds
    while any(is_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    return not any(is_running(pid) for pid in pids)


class TestChildHandle:
    def test_children_are_separate_processes(self, procs):
        pids = {process.pid for process in procs.processes.values()}
        assert len(pids) == 2
        assert os.getpid() not in pids
        for process in procs.processes.values():
            assert process.poll() is None  # still serving

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
            procs.await_child("alpha")  # peeks at the successor's READY
            assert new is procs.processes["alpha"]
            assert new.pid != old.pid
            assert parent_of(new.pid) == template
            assert old.stdout.closed and old.stderr.closed
            assert procs.driver.admin("alpha", "complets") == []

    def test_stop_leaves_no_process_and_no_descriptor(self):
        with CoreProcesses(["alpha"]):
            pass  # the template is running now, and its descriptors are the process's
        before = len(os.listdir("/proc/self/fd"))
        procs = CoreProcesses(["alpha", "beta"]).start()
        pids = [child.pid for child in procs.processes.values()]
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


class TestOneTemplatePerProcess:
    def test_a_second_deployment_starts_no_interpreter(self, monkeypatch):
        with CoreProcesses(["alpha"]) as first:
            template = template_of(first)

        def no_second_interpreter(*args, **kwargs):
            raise AssertionError(f"a deployment after the first ran Popen{args}")

        monkeypatch.setattr(subprocess, "Popen", no_second_interpreter)
        with CoreProcesses(["alpha", "beta"]) as second:
            assert template_of(second) == template
        assert is_running(template)

    def test_deployments_alive_at_once_stop_independently(self):
        first = CoreProcesses(["alpha", "beta"]).start()
        try:
            with CoreProcesses(["alpha", "beta"]) as second:  # the same names, other ports
                template = template_of(first)
                assert template_of(second) == template
                gone = [child.pid for child in first.processes.values()]
                first.stop()
                assert not any(is_running(pid) for pid in gone)
                assert children_of(template) == {c.pid for c in second.processes.values()}
                for name in second.names:
                    assert second.driver.admin(name, "complets") == []
            assert is_running(template) and not children_of(template)
        finally:
            first.stop()

    def test_a_child_that_ignores_shutdown_and_sigterm_is_gone_after_stop(self, monkeypatch):
        procs = CoreProcesses(["alpha", "beta"], shutdown_timeout=0.2).start()
        alpha, beta = procs.processes["alpha"], procs.processes["beta"]
        template = template_of(procs)
        try:
            # alpha never sees the shutdown message, and a stopped process
            # takes no SIGTERM: the template has to go as far as SIGKILL.
            admin = procs.driver.admin
            monkeypatch.setattr(
                procs.driver, "admin",
                lambda name, *args, **kwargs: name == "alpha" or admin(name, *args, **kwargs),
            )
            os.kill(alpha.pid, signal.SIGSTOP)
        finally:
            procs.stop()
        assert not is_running(alpha.pid) and not is_running(beta.pid)
        assert (alpha.returncode, beta.returncode) == (-signal.SIGKILL, 0)
        assert alpha.stdout.closed and alpha.stderr.closed
        # The template outlives them, and keeps nothing of theirs to be collected.
        assert is_running(template) and not children_of(template)
        assert not launch._shared._exit_codes.keys() & {alpha.pid, beta.pid}

    def test_a_path_entry_added_after_the_template_started_reaches_the_children(
        self, tmp_path, monkeypatch
    ):
        with CoreProcesses(["alpha"]):
            pass  # the template has the sys.path of this moment
        (tmp_path / "latecomer.py").write_text(
            "from repro.complet.anchor import Anchor\n"
            "from repro.complet.stub import compile_complet\n"
            "class Late_(Anchor):\n"
            "    def where(self):\n"
            "        return self.core.name\n"
            "Late = compile_complet(Late_)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            latecomer = importlib.import_module("latecomer")
            with CoreProcesses(["alpha"]) as procs:
                late = latecomer.Late(_core=procs.driver, _at="alpha")
                assert late.where() == "alpha"
        finally:
            sys.modules.pop("latecomer", None)

    def test_a_killed_template_is_replaced_and_its_deployment_still_stops(self):
        orphaned = CoreProcesses(["alpha", "beta"]).start()
        try:
            template = template_of(orphaned)
            alpha, beta = (orphaned.processes[name] for name in ("alpha", "beta"))
            os.kill(template, signal.SIGKILL)
            assert gone_within([template], 5.0)
            with CoreProcesses(["alpha"]) as procs:
                fresh = template_of(procs)
                assert fresh != template and parent_of(fresh) == os.getpid()
                assert procs.driver.admin("alpha", "complets") == []
            assert is_running(alpha.pid) and is_running(beta.pid)  # nobody ended them
            # The orphaned deployment respawns alpha, from the template there is now.
            alpha.kill()
            assert alpha.wait(timeout=5.0) == launch.UNREPORTED_EXIT  # its pidfd says so
            reborn = orphaned.spawn_child("alpha")
            orphaned.await_child("alpha")
            assert parent_of(reborn.pid) == fresh
            assert orphaned.driver.admin("alpha", "complets") == []
        finally:
            started = time.monotonic()
            orphaned.stop()
        assert time.monotonic() - started < orphaned.shutdown_timeout
        # reborn through the template that forked it, beta by pid; both are gone.
        assert reborn.returncode == 0
        assert not is_running(beta.pid) and not is_running(reborn.pid)
        assert is_running(fresh) and not children_of(fresh)

    def test_a_forked_copy_of_the_driver_starts_a_template_of_its_own(self, monkeypatch):
        with CoreProcesses(["alpha"]) as first:
            template = template_of(first)
        pid = os.fork()
        if pid == 0:  # the copy: it inherited launch._shared, the parent's handle
            status = 1
            try:
                with CoreProcesses(["a"]) as procs:
                    own = template_of(procs)
                    assert own != template and parent_of(own) == os.getpid()
                    assert procs.driver.admin("a", "complets") == []
                launch._shared.close(5.0)
                status = 0
            finally:
                os._exit(status)  # no pytest teardown, no atexit, in the copy
        assert os.waitpid(pid, 0)[1] == 0
        assert is_running(template) and not children_of(template)  # it was told nothing

        def no_second_interpreter(*args, **kwargs):
            raise AssertionError(f"the parent's next deployment ran Popen{args}")

        monkeypatch.setattr(subprocess, "Popen", no_second_interpreter)
        with CoreProcesses(["alpha"]) as second:
            assert template_of(second) == template
            assert second.driver.admin("alpha", "complets") == []

    def test_a_forked_copy_stops_none_of_the_parents_children(self):
        with CoreProcesses(["alpha", "beta"]) as procs:
            children = [child.pid for child in procs.processes.values()]
            pid = os.fork()
            if pid == 0:  # the copy: it holds the parent's deployment
                status = 1
                try:
                    procs.stop()
                    status = 0
                finally:
                    os._exit(status)  # no pytest teardown, no atexit, in the copy
            assert os.waitpid(pid, 0)[1] == 0
            assert all(is_running(child) for child in children)
            for name in ("alpha", "beta"):  # over the parent's hub, as before
                assert procs.driver.admin(name, "complets") == []
        assert gone_within(children, 5.0)  # the parent's own stop() ends them

    def test_importing_the_launcher_starts_nothing(self):
        program = (
            "import os, threading\n"
            "import repro.cluster.launch\n"
            "from tests.procfs import children_of\n"
            "print(threading.active_count(), len(children_of(os.getpid())))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        fresh = subprocess.run(
            [sys.executable, "-c", program],
            env=env, capture_output=True, text=True, timeout=60.0, check=True,
        )
        assert fresh.stdout.split() == ["1", "0"]


#: A process set up as the template is (its interpreter flags, the launcher, then
#: the preload of the test suite's complet module), whose Cores then do what
#: children do.
AS_A_CHILD = """
import json, os, sys
import repro.cluster.launch as launch
launch._Preloads().load([["tests.anchors", os.path.abspath("tests/anchors.py")]], sys.path)
from tests.anchors import Leaf, Probe, Root
from repro.complet.stub import stub_target_id
from repro.core.core import Core
from repro.net.tcp import TcpTransport
from repro.sim.clock import RealClock
from repro.sim.scheduler import Scheduler

loaded = set(sys.modules)
names = ["driver", "a", "b"]
ports = dict(zip(names, launch.free_ports("127.0.0.1", len(names))))
cores, transports = {}, []
for name in names:
    scheduler = Scheduler(RealClock())
    transports.append(TcpTransport(scheduler, ports={name: ports[name]}))
    for peer in names:
        if peer != name:
            transports[-1].add_peer(peer, ("127.0.0.1", ports[peer]))
    cores[name] = Core(name, transports[-1], scheduler)
driver = cores["driver"]
leaves = [Leaf(bytes(2048), _core=driver, _at="a") for _ in range(2)]
root = Root(leaves, _core=driver, _at="a")
for leaf in leaves:
    driver.admin("a", "retype", complet=str(stub_target_id(root)),
                 target=str(stub_target_id(leaf)), type="pull")
driver.move(root, "b")
host, members = root.report()
probe = Probe(_core=driver, _at="a")
driver.admin("a", "move", complet=str(stub_target_id(probe)), destination="b")
probe.note("through a")  # the driver's tracker still names a
hosted = len(driver.admin("b", "complets"))
for core, transport in zip(cores.values(), transports):
    core.shutdown()
    transport.close()
print(json.dumps({
    "gained": sorted(set(sys.modules) - loaded),
    "hosts": [host, *(where for where, _crc in members)], "hosted": hosted,
    "no_site": sys.flags.no_site,
    "driver_only": sorted({"argparse", "subprocess", "encodings.idna", "typing"} & loaded),
}))
"""


#: A driver whose one child checkpoints to ``sys.argv[1]``: it waits for the
#: child's first sweep, then prints whether the child maps OpenSSL's libcrypto.
CHECKPOINTING_DRIVER = """
import sys, time
from repro.cluster import CoreProcesses
from repro.recovery.store import CheckpointStore
from tests.anchors import Probe

with CoreProcesses(["alpha"], checkpoint_dir=sys.argv[1]) as procs:
    Probe(_core=procs.driver, _at="alpha")
    store = CheckpointStore(sys.argv[1])
    deadline = time.monotonic() + 20.0
    while not store.hosted_at("alpha") and time.monotonic() < deadline:
        time.sleep(0.05)
    print("swept" if store.hosted_at("alpha") else "never-swept")
    with open(f"/proc/{procs.processes['alpha'].pid}/maps") as maps:
        print("libcrypto" in maps.read())
"""


def write_complet_module(directory, name: str, body: str = "", answer: str = "") -> None:
    """``directory/name.py``: an anchor class ``Mod_`` (compiled as ``Mod``) whose
    ``answer()`` returns ``answer`` and the Core it runs at, after ``body``."""
    (directory / f"{name}.py").write_text(
        body
        + "from repro.complet.anchor import Anchor\n"
        "from repro.complet.stub import compile_complet\n"
        "class Mod_(Anchor):\n"
        "    def answer(self):\n"
        f"        return {answer!r}, self.core.name\n"
        "Mod = compile_complet(Mod_)\n"
    )


@pytest.fixture()
def complet_module(tmp_path, monkeypatch):
    """Import a module written by :func:`write_complet_module` from a directory
    of its own, put in front of ``sys.path``; all are forgotten afterwards."""
    imported = []

    def load(name: str, directory=tmp_path, **content):
        directory.mkdir(exist_ok=True)
        write_complet_module(directory, name, **content)
        monkeypatch.syspath_prepend(str(directory))
        sys.modules.pop(name, None)
        imported.append(name)
        return importlib.import_module(name)

    yield load
    for name in imported:
        sys.modules.pop(name, None)


class TestPreload:
    """The template imports the driver's complet modules before it forks."""

    def test_a_child_imports_nothing_after_fork(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        interpreter = launch._TEMPLATE_COMMAND[:-2]  # its flags, without its "-c" program
        fresh = subprocess.run(
            [*interpreter, "-c", AS_A_CHILD],
            env=env, capture_output=True, text=True, timeout=60.0, check=True,
        )
        outcome = json.loads(fresh.stdout)
        # _blake2 is the one module a Core imports late, and only with a store
        # or checkpoints, which these Cores do not have.
        assert outcome["gained"] == []
        assert outcome["hosts"] == ["b", "b", "b"] and outcome["hosted"] == 4
        # Nothing of site's start-up, and nothing only the driver or mypy uses, is in the image.
        assert outcome["no_site"] == 1
        assert outcome["driver_only"] == []

    def test_a_checkpointing_child_maps_no_libcrypto(self, tmp_path):
        """Each sweep puts the closure in a FileStore, keyed by the builtin
        BLAKE2b: OpenSSL's libcrypto never loads in the child.  The driver
        is a process of its own, so its template preloads no test module
        that imports hypothesis, and with it hashlib."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        fresh = subprocess.run(
            [sys.executable, "-c", CHECKPOINTING_DRIVER, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60.0, check=True,
        )
        assert fresh.stdout.split() == ["swept", "False"]

    def test_the_template_executes_the_launcher_once(self):
        """``-m`` would run launch.py a second time, as ``__main__``, after the
        package had imported it, and runpy warns about that on stderr."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        ours, theirs = socket.socketpair()
        with ours:
            with theirs:
                template = subprocess.Popen(
                    [*launch._TEMPLATE_COMMAND, "--template", str(theirs.fileno())],
                    pass_fds=[theirs.fileno()], stderr=subprocess.PIPE, text=True, env=env,
                )
            ours.shutdown(socket.SHUT_WR)  # the hang-up of a driver that exits in good order
            _out, stderr = template.communicate(timeout=60.0)
        assert template.returncode == 0
        assert stderr == ""

    def test_the_driver_names_the_modules_that_define_its_anchors(self, complet_module):
        module = complet_module("preloaded_here")
        named = dict(launch._complet_modules())
        assert named["preloaded_here"] == module.__file__
        assert named["tests.anchors"] == os.path.abspath(anchors.__file__)
        assert "__main__" not in named

    def test_a_module_that_fails_in_the_template_leaves_the_fork_working(
        self, complet_module, tmp_path
    ):
        module = complet_module("fails_in_the_template")
        # What the template reads now raises: it skips the module and forks.
        (tmp_path / "fails_in_the_template.py").write_text("raise ImportError('not here')\n")
        assert "fails_in_the_template" in dict(launch._complet_modules())
        with CoreProcesses(["alpha"]) as procs:
            assert procs.driver.admin("alpha", "complets") == []
            assert anchors.Probe(_core=procs.driver, _at="alpha").get_history() == []
        assert module.Mod_.__module__ == "fails_in_the_template"

    def test_each_deployment_gets_the_file_its_driver_imported(self, complet_module, tmp_path):
        for answer in ("first", "second"):
            module = complet_module(
                "latecomer", directory=tmp_path / answer, answer=answer
            )
            with CoreProcesses(["alpha"]) as procs:
                stub = module.Mod(_core=procs.driver, _at="alpha")
                assert stub.answer() == (answer, "alpha")

    def test_a_complet_module_that_imports_from_site_packages(self, complet_module):
        """The template runs without ``site``: the path it inherits must still
        name site-packages, where hypothesis alone is installed."""
        module = complet_module("needs_site_packages", body="import hypothesis\n")
        with CoreProcesses(["alpha", "beta"]) as procs:
            stub = module.Mod(_core=procs.driver, _at="alpha")
            assert stub.answer() == ("", "alpha")
            procs.driver.move(stub, "beta")
            assert stub.answer() == ("", "beta")
            assert not launch._shared.retired

    def test_a_pair_that_missed_is_not_tried_again(self, tmp_path, monkeypatch):
        trims = []
        monkeypatch.setattr(launch, "_trim_heap", lambda: trims.append(True))
        tries = tmp_path / "tries"
        (tmp_path / "never_imports.py").write_text(
            f"open({str(tries)!r}, 'a').write('x')\nraise ImportError('not here')\n"
        )
        write_complet_module(tmp_path, "imports_once")
        preloads = launch._Preloads()
        pairs = [[name, str(tmp_path / f"{name}.py")] for name in ("never_imports", "imports_once")]
        try:
            for _ in range(3):
                assert preloads.load(pairs, [str(tmp_path)]) is False
            assert tries.read_text() == "x" and "never_imports" not in sys.modules
            assert sys.modules["imports_once"].__file__ == pairs[1][1]
            assert trims == [True]  # after the one import that succeeded
        finally:
            sys.modules.pop("imports_once", None)

    def test_a_module_that_starts_a_thread_retires_the_template_alone(self, complet_module):
        with CoreProcesses(["alpha", "beta"]) as running:
            retired = launch._shared
            pids = [child.pid for child in running.processes.values()]
            module = complet_module(
                "starts_a_thread",
                body="import threading, time\n"
                "threading.Thread(target=time.sleep, args=(2.0,), daemon=True).start()\n",
            )
            # The spawn that named it goes to a new template, whose child
            # imports the module itself when a complet of it arrives.
            with CoreProcesses(["gamma"]) as procs:
                assert retired.retired and launch._shared is not retired
                assert template_of(procs) == launch._shared.process.pid
                assert module.Mod(_core=procs.driver, _at="gamma").answer() == ("", "gamma")
            assert "starts_a_thread" not in dict(launch._complet_modules())
            # The running deployment kept its children, and respawns from the new template.
            assert all(is_running(pid) for pid in pids)
            assert running.driver.admin("alpha", "complets") == []
            running.processes["beta"].kill()
            assert running.processes["beta"].wait(5.0) == -signal.SIGKILL  # reaped, reported
            reborn = running.spawn_child("beta")
            running.await_child("beta")
            assert parent_of(reborn.pid) == launch._shared.process.pid
        # alpha through the retired template, reborn beta through the new one.
        assert retired.process.poll() is None and not children_of(retired.process.pid)
        assert not is_running(pids[0]) and not is_running(reborn.pid)
