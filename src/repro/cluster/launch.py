"""Multi-process deployment: Cores as separate OS processes over TCP.

This is the deployment shape of the paper — one stationary Core runtime
per machine/process, complets moving between them — realised with
:class:`~repro.net.tcp.TcpTransport`.  Three roles:

- **Child**: one Core per process, running :func:`serve` until it is
  shut down (remotely via the ``shutdown`` admin operation, or by
  signal).  It prints ``READY <name> <port>`` on stdout once its
  listener accepts.
- **Template**: ``python -S -c "import sys; from repro.cluster.launch
  import main; sys.exit(main())" --template FD``, one per driver
  *process* and its only ``exec``: the first deployment starts it,
  every later one uses it, and it stays until the driver exits.  It
  imports this package once, with all a child Core imports besides, and
  executes this module once (``-m`` would run it again as ``__main__``,
  and every child would carry both copies); then, on each request read
  from the control socket ``FD``, ``fork()``s one child that starts
  from the imported image (:func:`run_template`) and compiles nothing
  more.  It is the children's parent: it reaps them and reports every
  exit back, it terminates the ones a stopping deployment names, and
  when the control socket reaches end of file — the driver is gone,
  however it went — it terminates them all.
- **Driver**: :class:`CoreProcesses` preallocates a port per Core,
  asks the process's template for the children with the full peer map,
  runs a local *driver* Core on its own hub (the experimenter's seat:
  instantiate, move, admin — everything goes through ordinary Core APIs
  over TCP), and tears its own children down on exit.

The template's path is ``PYTHONPATH``, which carries the driver's
``sys.path`` (site directories and ``.pth`` entries included), plus
what each fork request's path, that of the moment, adds: anchor classes
defined in the driving program (e.g. a test suite's shared module)
unpickle in the children, also when their directory was added after
the template had started.  It runs without ``site`` (``-S``), so the
``.pth`` import lines, ``sitecustomize`` and the ``exit``/``quit``
builtins do not reach the children.  Everything else a child sees is
the template's: its environment, its working directory, and the code it
imported (a module edited since is not read again).

Before it forks, the template imports the driver's complet modules too:
a request names, as ``(module, file)``, each module of the driver but
``__main__`` that defines an :class:`~repro.complet.anchor.Anchor`
subclass.  It imports them with the request's path in front of its own,
keeps a module only if it came from the file named (one of that name
from another file is dropped, and the child imports its own) and skips
one that fails to import.  After any new import it collects garbage and
hands the freed heap back to the system (glibc's ``malloc_trim``), so
that no child starts with it resident.  A complet module should not
start a thread at import: ``fork()`` copies the calling thread alone,
so a template that has imported one forks no more.  It still serves the
children it has, until the driver exits; the spawn that named the
module goes to a new template, and the driver's process never names
that module again, so that its children import it themselves.

Cross-process recovery rides on durable checkpoints: pass
``checkpoint_dir`` and every child periodically snapshots its hosted
complets into a shared :class:`~repro.recovery.CheckpointStore`
directory there; a child started with ``recover`` (what the
:class:`~repro.cluster.supervisor.Supervisor` does when it respawns a
dead one) restores the complets its predecessor last checkpointed —
identity preserved — before announcing READY (see docs/FAILURES.md).
"""

from __future__ import annotations

# Every child inherits what the template imports, and the template imports
# this module: what the driver alone uses (subprocess, the FIONREAD peek's
# fcntl and termios) is imported in the functions that use it.
import atexit
import contextlib
import gc
import importlib
import json
import logging
import os
import queue
import select
import selectors
import signal
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.complet.anchor import Anchor
from repro.core.admin import CoreAdmin
from repro.core.core import Core
from repro.core.events import COMPLET_ARRIVED
from repro.errors import ConfigurationError, CoreError, FarGoError, TransportError
from repro.net.tcp import TcpTransport
from repro.recovery.checkpoint import checkpoint_group, restore_record
from repro.recovery.store import CheckpointStore
from repro.sim.clock import RealClock
from repro.sim.scheduler import Scheduler
from repro.store.store import FileStore

logger = logging.getLogger(__name__)

#: How often a serving child sweeps its scheduler for due timers.
_SERVE_INTERVAL = 0.02

#: stdout line a child prints once its listener is accepting.
READY_PREFIX = "READY"


def free_ports(host: str, count: int) -> list[int]:
    """Reserve ``count`` distinct ephemeral port numbers (bind-to-zero trick).

    Every reservation socket stays open until all are bound, so the
    kernel cannot hand one number out twice within a deployment.  They
    are closed again before the Cores bind, so a race with another
    process is possible but unlikely; good enough for localhost
    deployments.
    """
    with contextlib.ExitStack() as held:
        ports = []
        for _ in range(count):
            sock = held.enter_context(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            ports.append(sock.getsockname()[1])
        return ports


class ChildCheckpointer:
    """Periodic durable checkpoints of every complet a child Core hosts.

    The in-process :class:`~repro.recovery.CheckpointManager` protects
    individual complets through the cluster harness; a child process has
    no harness, so this standalone checkpointer sweeps the whole
    repository instead — every hosted complet, with its local pull-group
    — into the shared :class:`~repro.recovery.CheckpointStore` directory.
    Each record names this Core as host, which is exactly what a
    successor process (``serve(recover=True)``) and the cluster-side
    :class:`~repro.recovery.RecoveryManager` key on.  An arrival is
    checkpointed before its move replies, so the old host's successor
    does not restore a second copy of it.
    """

    def __init__(self, core: Core, store: CheckpointStore, interval: float = 0.5) -> None:
        if interval <= 0.0:
            raise ConfigurationError(f"checkpoint interval must be positive: {interval}")
        self.core = core
        self.store = store
        self.interval = interval
        self._timer = None
        self._arrivals = 0
        #: Sweeps run on the serve loop, arrivals on a connection's thread.
        self._lock = threading.Lock()

    def start(self) -> None:
        self._timer = self.core.scheduler.call_every(self.interval, self.sweep)
        self._arrivals = self.core.events.subscribe(COMPLET_ARRIVED, self._arrived)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self.core.events.unsubscribe(self._arrivals)

    def sweep(self) -> int:
        """Checkpoint every hosted complet once; records written."""
        written = 0
        covered: set = set()
        for complet_id in self.core.repository.complet_ids():
            anchor = self.core.repository.get(complet_id)
            if anchor is None or complet_id in covered:
                continue  # gone, or captured with an earlier complet's group
            group, count = self._checkpoint(anchor)
            covered.update(group)
            written += count
        return written

    def _arrived(self, event) -> None:
        anchor = self.core.repository.find_by_str(event.data["complet"])
        if anchor is not None:
            self._checkpoint(anchor)

    def _checkpoint(self, anchor: Anchor) -> tuple[tuple, int]:
        """Store ``anchor``'s local pull-group: its ids, and records written."""
        with self._lock:
            group, records = checkpoint_group(self.core, anchor)
            for record in records:
                self.store.put(record)
        return group, len(records)


def restore_from_store(core: Core, store: CheckpointStore) -> list[str]:
    """Restore the complets ``core``'s predecessor last checkpointed.

    Runs in a freshly-started child before it announces READY: every
    record whose last known host is this Core's name is brought back
    under its *original* identity (the repository is empty, so only a
    location record naming a live copy elsewhere refuses one, and that
    one is left to its copy).  Returns the restored ids' display forms.
    """
    restored: list[str] = []
    for record in store.hosted_at(core.name):
        try:
            restored.append(str(restore_record(core, record.snapshot)))
        except FarGoError:
            logger.warning(
                "restore of %s at reborn %s failed",
                record.complet_id, core.name, exc_info=True,
            )
    return restored


def serve(
    name: str,
    port: int,
    peers: dict[str, tuple[str, int]],
    *,
    host: str = "127.0.0.1",
    checkpoint_dir: str | None = None,
    checkpoint_interval: float = 0.5,
    recover: bool = False,
    store_dir: str | None = None,
    life: int = 0,
) -> None:
    """Run one Core in this process until it shuts down.

    Blocks; the loop alternates between sleeping and firing due timers,
    which is how heartbeats, watches, and deferred shutdowns execute in
    a real-clock process.  With ``checkpoint_dir`` the Core durably
    checkpoints its hosted complets every ``checkpoint_interval``
    seconds; with ``recover`` it first restores whatever its predecessor
    last checkpointed there (identity preserved), *before* READY.  With
    ``store_dir`` it offloads large payloads to the ``FileStore`` there,
    the same directory for every Core of the deployment.  ``life`` counts
    the earlier spawns of ``name``: the Core numbers from that life's range.
    """
    scheduler = Scheduler(RealClock())
    transport = TcpTransport(scheduler, host=host, ports={name: port})
    # Peers first: the listener accepts as soon as the Core registers, and
    # a request that arrives then may already need an address to answer.
    for peer_name, address in peers.items():
        transport.add_peer(peer_name, address)
    core = Core(
        name, transport, scheduler,
        store=FileStore(store_dir) if store_dir is not None else None,
    )
    core.repository.begin_life(life)
    checkpointer = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        if recover:
            restored = restore_from_store(core, store)
            if restored:
                print(
                    f"RESTORED {name} {len(restored)} {' '.join(restored)}",
                    file=sys.stderr, flush=True,
                )
        checkpointer = ChildCheckpointer(core, store, checkpoint_interval)
        checkpointer.start()
    print(f"{READY_PREFIX} {name} {transport.local_address(name)[1]}", flush=True)
    try:
        while core.is_running:
            scheduler.fire_due()
            time.sleep(_SERVE_INTERVAL)
    finally:
        if checkpointer is not None:
            # A last sweep on graceful shutdown; a SIGKILLed child relies
            # on its periodic sweeps instead.
            try:
                checkpointer.sweep()
            except FarGoError:
                pass
            checkpointer.stop()
        if core.is_running:
            core.shutdown()
        transport.close()


# -- the template: one import, one fork per child -----------------------------

#: How long the template lets its children die of SIGTERM before SIGKILL.
_TERMINATE_GRACE = 2.0


def _file_of(module) -> str | None:
    """The absolute path ``module`` was loaded from; None for one without a file."""
    file = getattr(module, "__file__", None)
    return os.path.abspath(file) if file else None


def _trim_heap() -> None:
    """Collect what the imports left behind and hand the freed heap back to the
    system, so that a child is not forked with it resident (glibc only)."""
    import ctypes  # the template's alone: drivers import this module too

    gc.collect()
    with contextlib.suppress(OSError, AttributeError):  # no libc, or not glibc's
        ctypes.CDLL(None).malloc_trim(0)


class _Preloads:
    """The template's imports of the driver's complet modules (:meth:`load`)."""

    def __init__(self) -> None:
        #: ``(module, file)`` pairs that failed, or came from another file:
        #: not tried again (each try costs an import and a heap trim).
        self.missed: set[tuple[str, str]] = set()
        #: The module whose import started a thread, once one has: the
        #: template forks no more then (see :func:`_fork_child`).
        self.threaded: str | None = None

    def load(self, modules, path) -> bool:
        """Import the complet modules a request names, so its child need not.

        ``modules`` is ``[module, file]`` pairs (:func:`_complet_modules`),
        imported with what ``path`` (the requester's ``sys.path``) has in
        front of the template's own, as the child would.  A module stays
        loaded only if it came from that file: one of the same name from
        another file is dropped, so that the child imports the right one
        itself.  One that fails to import is skipped, and its child fails
        as it would have.  A module whose import starts a thread is kept
        in :attr:`threaded`, and nothing more is imported.  Returns whether
        one has: the template may fork no more.
        """
        if self.threaded is not None:
            return True
        wanted = []
        for name, file in modules:
            if _file_of(sys.modules.get(name)) != file:
                sys.modules.pop(name, None)  # another file's: the child imports its own
                if (name, file) not in self.missed:
                    wanted.append((name, file))
        if not wanted:
            return False
        imported = False
        saved = sys.path[:]
        sys.path[:0] = [entry for entry in path if entry not in sys.path]
        importlib.invalidate_caches()
        try:
            for name, file in wanted:
                threads = threading.active_count()
                try:
                    loaded = importlib.import_module(name)
                except Exception:  # noqa: BLE001 - the child meets it again, and says so
                    logger.debug("preloading %s failed", name, exc_info=True)
                    self.missed.add((name, file))
                    continue
                imported = True
                if threading.active_count() != threads:
                    self.threaded = name
                    return True
                if _file_of(loaded) != file:
                    del sys.modules[name]
                    self.missed.add((name, file))
        finally:
            sys.path[:] = saved
            if imported:
                _trim_heap()
        return False


def _fork_child(spec: dict, stdout_fd: int, stderr_fd: int, inherited, path=()) -> int:
    """Fork one child that runs ``serve(**spec)``; its pid, in the template.

    The child writes to the two pipes it was sent instead of the
    template's stdout and stderr, and closes ``inherited`` — whatever of
    the template's it must not hold open: the control socket (or the
    driver would not see the template go) and the wake-up pair.  It puts
    what ``path`` (the requester's ``sys.path``) has and its own lacks in
    front of its own.  It never returns into the template's loop: it
    leaves through ``os._exit``.
    """
    if threading.active_count() != 1:
        # fork() copies the calling thread alone; a lock another thread
        # holds at that instant stays locked in the child for ever.
        raise CoreError(
            f"the template runs {threading.active_count()} threads and "
            "forks only while it runs one"
        )
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        for resource in inherited:
            resource.close()
        os.dup2(stdout_fd, 1)
        os.dup2(stderr_fd, 2)
        os.close(stdout_fd)
        os.close(stderr_fd)
        sys.path[:0] = [entry for entry in path if entry not in sys.path]
        spec["peers"] = {name: tuple(address) for name, address in spec["peers"].items()}
        serve(**spec)
        status = 0
    except BaseException:  # noqa: BLE001 - the process ends here, saying why
        traceback.print_exc()
    finally:
        with contextlib.suppress(OSError, ValueError):
            sys.stdout.flush()
            sys.stderr.flush()
        os._exit(status)


def _report(control: socket.socket, message: dict) -> None:
    """Send one line to the driver; a driver that is gone is found by the read."""
    with contextlib.suppress(OSError):
        control.sendall(json.dumps(message).encode() + b"\n")


def _answer_request(
    control: socket.socket, children: set[int], inherited, preloads: _Preloads
) -> bool:
    """Read one request and answer it; False at end of file.

    A request is one JSON line.  ``{"spec": ..., "path": ..., "preload":
    ...}`` asks for a fork (:func:`_fork_child`) after the preload
    (:meth:`_Preloads.load`) and comes with the write ends of the child's stdout
    and stderr pipes; the template closes its copies at once, so that no
    later sibling inherits them and a dead child's pipes reach end of
    file.  ``{"terminate": pids}`` ends those children (:func:`_terminate`)
    and is answered once they are reaped.  Once a preload has started a
    thread, every fork request is refused with a reply that names the
    module; the template still reaps, reports and terminates the children
    it has, until the driver hangs up.
    """
    data, fds = b"", []
    while not data.endswith(b"\n"):
        chunk, received, _flags, _address = socket.recv_fds(control, 65536, 2)
        if not chunk:
            return False
        data += chunk
        fds += received
    try:
        request = json.loads(data)
        if "terminate" in request:
            _terminate(request["terminate"], children, control)
            reply = {}
        elif preloads.load(request["preload"], request["path"]):
            reply = {
                "error": f"importing {preloads.threaded!r} started a thread, and a "
                "template that runs two forks no more",
                "threaded": preloads.threaded,
            }
        else:
            stdout_fd, stderr_fd = fds
            pid = _fork_child(request["spec"], stdout_fd, stderr_fd, inherited, request["path"])
            children.add(pid)
            reply = {"pid": pid}
    except Exception as exc:  # noqa: BLE001 - the driver raises it; the template serves on
        reply = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        for fd in fds:
            os.close(fd)
    _report(control, reply)
    return True


def _reap(children: set[int], control: socket.socket, until_gone=frozenset()) -> None:
    """Collect the children that have exited and report each exit code; waits
    for an exit while one of ``until_gone`` is still a child."""
    while children:
        pid, status = os.waitpid(-1, 0 if until_gone & children else os.WNOHANG)
        if pid == 0:
            return
        children.discard(pid)
        _report(control, {"exit": pid, "status": os.waitstatus_to_exitcode(status)})


def _terminate(doomed, children: set[int], control: socket.socket) -> None:
    """SIGTERM the ``doomed`` children, SIGKILL what is left after the grace, reap them."""
    doomed = children.intersection(doomed)  # once reaped, a pid may be another process's
    for pid in doomed:
        os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + _TERMINATE_GRACE
    while doomed & children and time.monotonic() < deadline:
        _reap(children, control)
        time.sleep(0.01)
    for pid in doomed & children:
        os.kill(pid, signal.SIGKILL)
    _reap(children, control, doomed)


def run_template(control_fd: int) -> int:
    """Serve the requests from socket ``control_fd`` until it is hung up.

    Single-threaded on purpose (see :func:`_fork_child`): one selector
    waits for requests and for the signals' wake-up bytes.  SIGCHLD means
    there is an exit to report; SIGTERM and end of file on the control
    socket both mean the driver is done, and no child outlives it.
    """
    _trim_heap()  # of what importing this module cost
    control = socket.socket(fileno=control_fd)
    wake_in, wake_out = socket.socketpair()
    wake_in.setblocking(False)
    wake_out.setblocking(False)
    signal.set_wakeup_fd(wake_out.fileno())
    for signum in (signal.SIGCHLD, signal.SIGTERM):
        signal.signal(signum, lambda *_: None)  # the wake-up byte is the message
    children: set[int] = set()
    preloads = _Preloads()
    with selectors.DefaultSelector() as ready, control, wake_in, wake_out:
        ready.register(control, selectors.EVENT_READ)
        ready.register(wake_in, selectors.EVENT_READ)
        inherited = (ready, control, wake_in, wake_out)
        try:
            while True:
                for key, _events in ready.select():
                    if key.fileobj is wake_in:
                        if signal.SIGTERM in wake_in.recv(4096):
                            return 0
                        _reap(children, control)
                    elif not _answer_request(control, children, inherited, preloads):
                        return 0
        finally:
            _terminate(children, children, control)


# -- the driver's side --------------------------------------------------------


#: The :attr:`ChildProcess.returncode` of a child that exited after its
#: template: the status died with the process that would have reaped it.
#: Neither an exit status (0-255) nor a signal (negative).
UNREPORTED_EXIT = 256


class ChildProcess:
    """The driver's handle on one child Core, shaped like ``subprocess``'s.

    The child's parent is the template, so nothing here can ``waitpid``:
    the exit code is whatever the template reported (negative for a
    signal, as ``subprocess`` has it).  Once the template is gone, the
    child's pidfd, opened with the handle, tells that it has exited, and
    the code is :data:`UNREPORTED_EXIT` (where there are no pidfds, such a
    child reads as alive).  ``stdout`` carries the ``READY`` line,
    ``stderr`` the child's last words.
    """

    def __init__(self, template: "_Template", pid: int, stdout, stderr) -> None:
        self._template = template
        self.pid = pid
        self.stdout = stdout
        self.stderr = stderr
        self.returncode: int | None = None
        try:  # readable once the child has exited, whoever reaps it
            self._pidfd: int | None = os.pidfd_open(pid)
        except (AttributeError, OSError):
            # No pidfds here (ENOSYS, a seccomp EPERM), or the child is gone
            # and reaped already: then the template's report is on its way.
            self._pidfd = None

    def poll(self) -> int | None:
        return self._take(0.0)

    def wait(self, timeout: float | None = None) -> int:
        code = self._take(timeout)
        if code is None:
            import subprocess

            raise subprocess.TimeoutExpired(f"child Core (pid {self.pid})", timeout or 0.0)
        return code

    def _take(self, timeout: float | None) -> int | None:
        if self.returncode is None:
            deadline = None if timeout is None else time.monotonic() + timeout
            # The template's report is taken once: a thread that lost the
            # race to it must not write None over the winner's code.
            code = self._template.exit_code(self.pid, timeout)
            if code is None and self._pidfd is not None and self._template.dead:
                exited = select.poll()
                exited.register(self._pidfd, select.POLLIN)
                wait = None if deadline is None else max(0.0, deadline - time.monotonic()) * 1000
                if exited.poll(wait):
                    code = UNREPORTED_EXIT
            if code is not None and self.returncode is None:
                self.returncode = code
        return self.returncode

    def kill(self) -> None:
        if self.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)

    def close(self) -> None:
        self.stdout.close()
        self.stderr.close()
        if self._pidfd is not None:
            os.close(self._pidfd)
            self._pidfd = None


class _Template:
    """The driver's end of the fork server: its process and control socket.

    One request is in flight at a time.  A reader thread sorts what the
    template sends into replies and exit reports, so that ``poll()`` is a
    dictionary lookup and ``wait()`` sleeps on a condition.
    """

    def __init__(self, command: list[str], env: dict[str, str]) -> None:
        import subprocess

        #: The process that started it: a forked copy of that process holds
        #: copies of this handle's descriptors and must not speak through them.
        self.owner = os.getpid()
        self._control, theirs = socket.socketpair()
        with theirs:
            self.process = subprocess.Popen(
                [*command, "--template", str(theirs.fileno())],
                pass_fds=[theirs.fileno()],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        self._request = threading.Lock()
        self._replies: queue.SimpleQueue[dict] = queue.SimpleQueue()
        self._exited = threading.Condition()
        self._exit_codes: dict[int, int] = {}
        self._gone = ""  # why, once the template is
        #: Why the template forks no more, once a preload started a thread there;
        #: it still serves the children it has.
        self.retired = ""
        self._reader = threading.Thread(
            target=self._read, name="template-reader", daemon=True
        )
        self._reader.start()

    def _read(self) -> None:
        try:
            with self._control.makefile("rb") as lines:
                for line in lines:
                    message = json.loads(line)
                    if "exit" in message:
                        with self._exited:
                            self._exit_codes[message["exit"]] = message["status"]
                            self._exited.notify_all()
                    else:
                        self._replies.put(message)
        except OSError:
            pass  # a template killed with bytes unread resets the socket
        # End of file: the template is gone and nothing more will be reported.
        assert self.process.stderr is not None
        last_words = self.process.stderr.read().strip()
        with self._exited:
            self._gone = f"the template process is gone: {last_words}"
            self._exited.notify_all()
        self._replies.put({"error": self._gone})  # to the request in flight, if any

    @property
    def dead(self) -> bool:
        """Whether the next request needs another template."""
        return bool(self._gone) or self.process.poll() is not None

    def _ask(self, request: dict, fds: list[int], timeout: float) -> dict:
        """Send one request, with ``fds``; its reply, or the error there is instead."""
        with self._request:
            if self._gone:
                return {"error": self._gone}
            try:
                socket.send_fds(self._control, [json.dumps(request).encode() + b"\n"], fds)
            except OSError:
                pass  # the template hung up: the reader's last reply says why
            try:
                return self._replies.get(timeout=timeout)
            except queue.Empty:
                # A reply that came later would answer the wrong request.
                self.process.terminate()
                return {"error": f"no answer from the template within {timeout}s"}

    def spawn(self, spec: dict, timeout: float) -> ChildProcess | None:
        """Have the template fork a child running ``serve(**spec)``; None if
        it has retired instead (:attr:`retired`): another template must."""
        stdout, stdout_w = os.pipe()
        stderr, stderr_w = os.pipe()
        pipes = [
            open(fd, encoding="utf-8", errors="replace") for fd in (stdout, stderr)  # noqa: SIM115
        ]
        try:
            request = {
                "spec": spec,
                "path": [entry for entry in sys.path if entry],
                "preload": _complet_modules(),
            }
            reply = self._ask(request, [stdout_w, stderr_w], timeout)
        finally:
            os.close(stdout_w)
            os.close(stderr_w)
        if "error" in reply:
            for pipe in pipes:
                pipe.close()
            if "threaded" in reply:
                if reply["threaded"] not in _threaded_at_import:
                    logger.warning(
                        "%s starts a thread at import: its children import it themselves",
                        reply["threaded"],
                    )
                    _threaded_at_import.add(reply["threaded"])
                self.retired = reply["error"]
                return None
            raise CoreError(
                f"child Core {spec['name']!r} could not be forked: {reply['error']}"
            )
        return ChildProcess(self, reply["pid"], *pipes)

    def exit_code(self, pid: int, timeout: float | None) -> int | None:
        """The exit code reported for ``pid``; None if none came in ``timeout``."""
        with self._exited:
            self._exited.wait_for(lambda: pid in self._exit_codes or self._gone, timeout)
            return self._exit_codes.pop(pid, None)

    def terminate(self, pids: list[int], timeout: float) -> None:
        """Have the template end its children ``pids``; back once they are reaped and
        reported, or at once when it is gone (it ends nothing; the caller has the pids)."""
        self._ask({"terminate": pids}, [], timeout + _TERMINATE_GRACE)

    def close(self, timeout: float) -> None:
        """Hang up: the template terminates the children left, reports and exits.

        In a forked copy of the owner only the copies of the descriptors
        are closed, which tells the owner's template nothing.
        """
        import subprocess

        if self.owner == os.getpid():
            with contextlib.suppress(OSError):
                self._control.shutdown(socket.SHUT_WR)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self._reader.join(timeout)
        self._control.close()
        assert self.process.stderr is not None
        self.process.stderr.close()


#: How a template starts: without ``site``, its path all in PYTHONPATH, and
#: with this module imported once (``-m`` would run it a second time as ``__main__``).
_TEMPLATE_COMMAND = [
    sys.executable, "-S", "-c",
    "import sys; from repro.cluster.launch import main; sys.exit(main())",
]

#: The process's template: started by its first deployment, used by every
#: later one, replaced once found dead or retired.  Nothing is started at import.
_shared: _Template | None = None
_shared_lock = threading.Lock()

#: Complet modules whose import started a thread in a template: never preloaded again.
_threaded_at_import: set[str] = set()


def _complet_modules() -> list[tuple[str, str]]:
    """``(module, file)`` of every module of this process, but ``__main__``, that
    defines an :class:`~repro.complet.anchor.Anchor` subclass: what a child
    imports to unpickle the complets that arrive, and the template preloads."""
    found: dict[str, str] = {}
    classes = Anchor.__subclasses__()
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        file = _file_of(sys.modules.get(cls.__module__))
        if file and cls.__module__ not in ("__main__", *_threaded_at_import):
            found[cls.__module__] = file
    return sorted(found.items())


def _shared_template() -> _Template:
    """The process's template, started or replaced if need be."""
    global _shared
    with _shared_lock:
        if _shared is not None and _shared.owner != os.getpid():
            _shared.close(0.0)  # inherited over a fork: the parent's, which goes on using it
            _shared = None
        if _shared is not None and _shared.dead:
            logger.warning("starting another template: %s", _shared._gone or "it exited")
            _shared.close(_TERMINATE_GRACE + 1.0)
            _shared = None
        if _shared is not None and _shared.retired:
            _shared = None  # it serves its children until the driver exits (atexit)
        if _shared is None:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            _shared = _Template(_TEMPLATE_COMMAND, env)
            # The hang-up of a driver that exits in good order: no Popen left un-waited.
            atexit.register(_shared.close, _TERMINATE_GRACE + 1.0)
        return _shared


@dataclass
class CoreProcesses:
    """A localhost multi-process deployment of Cores, driven in-process.

    Usage::

        with CoreProcesses(["A", "B"]) as procs:
            driver = procs.driver          # a real Core in this process
            stub = driver.instantiate(Message, "hello", at="A")
            driver.move(stub, "B")

    Every child is a separate process running :func:`serve`, forked from
    the calling process's template process (POSIX only; the first
    deployment of a process starts it); the driver Core lives on its own
    :class:`~repro.net.tcp.TcpTransport` hub in the calling process, so
    all interaction is genuine TCP traffic.
    """

    names: list[str]
    driver_name: str = "driver"
    host: str = "127.0.0.1"
    startup_timeout: float = 20.0
    shutdown_timeout: float = 10.0
    #: Shared durable-checkpoint directory; children checkpoint their
    #: hosted complets there and a respawned child restores from it.
    checkpoint_dir: str | None = None
    checkpoint_interval: float = 0.5
    #: Shared ``FileStore`` directory: driver and children offload large payloads.
    store_dir: str | None = None

    driver: Core | None = field(default=None, init=False)
    transport: TcpTransport | None = field(default=None, init=False)
    processes: dict[str, ChildProcess] = field(default_factory=dict, init=False)
    addresses: dict[str, tuple[str, int]] = field(default_factory=dict, init=False)
    #: Spawns of each child name so far: the life its next spawn numbers from.
    lives: dict[str, int] = field(default_factory=dict, init=False)
    # The fork server this deployment's children come from, while started.
    # Not in ``processes`` and not a field.
    _template = None  # type: _Template | None

    def __enter__(self) -> "CoreProcesses":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "CoreProcesses":
        if self.driver is not None:
            raise ConfigurationError("CoreProcesses is already started")
        if self.driver_name in self.names:
            raise ConfigurationError(
                f"driver name {self.driver_name!r} collides with a child Core"
            )
        if not hasattr(os, "fork"):
            raise ConfigurationError(
                "CoreProcesses forks its children from a template process, "
                "and this platform has no os.fork"
            )
        cores = [*self.names, self.driver_name]
        for name, port in zip(cores, free_ports(self.host, len(cores))):
            self.addresses[name] = (self.host, port)

        # If this is the one that starts it, the template imports while the
        # driver Core is built here.
        self._template = _shared_template()
        try:
            scheduler = Scheduler(RealClock())
            self.transport = TcpTransport(
                scheduler, host=self.host,
                ports={self.driver_name: self.addresses[self.driver_name][1]},
            )
            self.driver = Core(
                self.driver_name, self.transport, scheduler,
                store=FileStore(self.store_dir) if self.store_dir is not None else None,
            )
            for name in self.names:
                self.transport.add_peer(name, self.addresses[name])
            for name in self.names:
                self.spawn_child(name)
            self._await_ready()
        except Exception:
            self.stop()
            raise
        return self

    def spawn_child(self, name: str, *, recover: bool = False) -> ChildProcess:
        """(Re-)spawn child Core ``name`` on its preallocated address.

        With ``recover=True`` the child restores its predecessor's
        durable checkpoints before READY (requires ``checkpoint_dir``).
        Replaces any previous process handle for ``name``; the caller is
        responsible for the old process being gone.  Each spawn is a new life.
        """
        if name not in self.addresses:
            raise ConfigurationError(f"unknown child Core {name!r}")
        if self._template is None:
            raise ConfigurationError("CoreProcesses is not started")
        spec = {
            "name": name,
            "port": self.addresses[name][1],
            "peers": {
                peer: address for peer, address in self.addresses.items() if peer != name
            },
            "host": self.host,
            "checkpoint_dir": self.checkpoint_dir,
            "checkpoint_interval": self.checkpoint_interval,
            "recover": recover,
            "store_dir": self.store_dir,
            "life": self.lives.get(name, 0),
        }
        self.lives[name] = spec["life"] + 1
        process = None
        while process is None:  # each template that retires names one module fewer
            if self._template.dead or self._template.retired:
                self._template = _shared_template()
            process = self._template.spawn(spec, self.startup_timeout)
        previous = self.processes.get(name)
        if previous is not None:
            previous.close()
        self.processes[name] = process
        return process

    def await_child(self, name: str, timeout: float | None = None) -> None:
        """Block until child ``name`` has printed its READY line.

        A child prints it once its Core has registered every handler and
        learnt its peers, and a ``recover`` child once it has restored its
        checkpoints too: every request the caller sends next finds its
        handler.  The line is only peeked at (``FIONREAD``) and left in the
        pipe, which belongs to whoever reads the child's stdout.  A pipe
        that ends instead means the child died.
        """
        import array
        import fcntl
        import subprocess
        import termios

        budget = timeout if timeout is not None else self.startup_timeout
        process = self.processes[name]
        with selectors.DefaultSelector() as readable:
            readable.register(process.stdout, selectors.EVENT_READ)
            if not readable.select(budget):
                raise CoreError(f"child Core {name!r} did not come up within {budget}s")
        waiting = array.array("i", [0])
        fcntl.ioctl(process.stdout.fileno(), termios.FIONREAD, waiting)
        if not waiting[0]:
            last_words = process.stderr.read()  # to the end: the child is gone
            with contextlib.suppress(subprocess.TimeoutExpired):
                process.wait(timeout=self.shutdown_timeout)
            raise CoreError(
                f"child Core {name!r} exited with status {process.returncode} "
                f"during startup:\n{last_words}"
            )

    def _await_ready(self) -> None:
        """Block until every child has printed READY."""
        deadline = time.monotonic() + self.startup_timeout
        for name in self.names:
            self.await_child(name, timeout=max(0.1, deadline - time.monotonic()))

    def stop(self) -> None:
        """Shut this deployment's children down, then release the driver hub.

        In a forked copy of the process that started them (the hub is
        :attr:`~repro.net.tcp.TcpTransport.forked`) the children are that
        process's: the copy closes its copies of the hub and of the
        children's pipes, and asks, ends or kills nothing.
        """
        import subprocess

        driver = self.driver
        if self.transport is not None and self.transport.forked:
            for process in self.processes.values():
                process.close()
            self.processes.clear()
            self.transport.close()
            self._template = self.driver = self.transport = None
            return
        for name, process in self.processes.items():
            if process.poll() is not None:
                continue
            if driver is not None and driver.is_running:
                try:
                    # Any positive delay defers the shutdown to the child's
                    # next serve tick, after its serving thread wrote the reply.
                    CoreAdmin(driver, name).shutdown(delay=1e-9)
                except (CoreError, TransportError):
                    pass
        for process in self.processes.values():
            with contextlib.suppress(subprocess.TimeoutExpired):
                process.wait(timeout=self.shutdown_timeout)
        left = [process for process in self.processes.values() if process.returncode is None]
        for template in {process._template for process in left}:
            # These and no others: the template serves the process's next deployment.
            template.terminate(
                [process.pid for process in left if process._template is template],
                self.shutdown_timeout,
            )
        self._template = None
        deadline = time.monotonic() + self.shutdown_timeout
        for process in self.processes.values():
            if process.poll() is None:  # its template is gone and ended nothing
                process.kill()
                with contextlib.suppress(subprocess.TimeoutExpired):
                    process.wait(max(0.0, deadline - time.monotonic()))
            process.close()
        self.processes.clear()
        if driver is not None and driver.is_running:
            driver.shutdown()
        if self.transport is not None:
            self.transport.close()
        self.driver = None
        self.transport = None


def main(argv: list[str] | None = None) -> int:
    """The template a CoreProcesses deployment forks its Cores from: it serves the
    requests read from the inherited socket ``--template FD``.  The arguments
    are read without argparse, which every child would inherit."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] != "--template" or not argv[1].isdigit():
        sys.exit(f"usage: python -S -c {_TEMPLATE_COMMAND[-1]!r} --template FD"
                 " (CoreProcesses starts it)")
    status = run_template(int(argv[1]))
    if threading.active_count() > 1:
        # A thread some import started would hold the interpreter's exit up.
        sys.stderr.flush()
        os._exit(status)
    return status
