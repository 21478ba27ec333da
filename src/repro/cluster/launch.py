"""Multi-process deployment: Cores as separate OS processes over TCP.

This is the deployment shape of the paper — one stationary Core runtime
per machine/process, complets moving between them — realised with
:class:`~repro.net.tcp.TcpTransport`.  Two roles:

- **Child**: one Core per process, running :func:`serve` on the
  listening socket it was handed until it is shut down (remotely via the
  ``shutdown`` admin operation, or by signal).  It prints ``READY <name>
  <port>`` on stdout once its Core serves.
- **Driver**: :class:`CoreProcesses` listens on a socket per child, has
  the process's fork server (:mod:`repro.cluster.forkserver`, whose
  template runs :func:`main`) fork each child with its socket, the full
  peer map and the driver's complet modules preloaded, runs a local
  *driver* Core on its own hub (the experimenter's seat: everything goes
  through ordinary Core APIs over TCP), and tears its own children down.

Cross-process recovery rides on durable checkpoints: pass
``checkpoint_dir`` and every child runs a
:class:`~repro.recovery.Checkpointer`, which snapshots its hosted
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
import contextlib
import logging
import os
import selectors
import socket
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.cluster.forkserver import (
    ChildProcess, file_of, run_template, shared_template, spawn, terminate,
)
from repro.complet.anchor import Anchor
from repro.core.admin import CoreAdmin
from repro.core.core import Core
from repro.errors import ConfigurationError, CoreError, FarGoError, TransportError
from repro.net.tcp import TcpTransport, listen
from repro.recovery.checkpoint import Checkpointer, restore_record
from repro.recovery.store import CheckpointStore
from repro.sim.clock import RealClock
from repro.sim.scheduler import Scheduler
from repro.store.store import FileStore

logger = logging.getLogger(__name__)

#: How often a serving child sweeps its scheduler for due timers.
_SERVE_INTERVAL = 0.02

#: stdout line a child prints once its Core serves.
READY_PREFIX = "READY"


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
    listener: int,
    peers: dict[str, tuple[str, int]],
    *,
    checkpoint_dir: str | None = None,
    checkpoint_interval: float = 0.5,
    recover: bool = False,
    store_dir: str | None = None,
    life: int = 0,
) -> None:
    """Run one Core in this process, accepting on the listening socket whose
    descriptor is ``listener``, until it shuts down.

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
    transport = TcpTransport(scheduler, listeners={name: socket.socket(fileno=listener)})
    # Peers first: the listener accepts as soon as the Core registers, and
    # a request that arrives then may already need an address to answer.
    for peer_name, address in peers.items():
        transport.add_peer(peer_name, address)
    core = Core(
        name, transport, scheduler,
        store=FileStore(store_dir) if store_dir is not None else None,
    )
    core.repository.begin_life(life)
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        if recover:
            restored = restore_from_store(core, store)
            if restored:
                print(
                    f"RESTORED {name} {len(restored)} {' '.join(restored)}",
                    file=sys.stderr, flush=True,
                )
        Checkpointer(core, store, checkpoint_interval).start()
    print(f"{READY_PREFIX} {name} {transport.local_address(name)[1]}", flush=True)
    try:
        while core.is_running:
            scheduler.fire_due()
            time.sleep(_SERVE_INTERVAL)
    finally:
        # A shutdown takes the checkpointer's last sweep; a SIGKILLed child
        # relies on its periodic sweeps instead.
        if core.is_running:
            core.shutdown()
        transport.close()


# -- the driver's side --------------------------------------------------------


#: How a template starts: without ``site`` (so no ``.pth`` import line or
#: ``sitecustomize`` reaches a child), its path all in PYTHONPATH, and with this
#: module executed once (``-m`` would run it a second time as ``__main__``).
_TEMPLATE_COMMAND = [
    sys.executable, "-S", "-c",
    "import sys; from repro.cluster.launch import main; sys.exit(main())",
]


def _complet_modules() -> list[tuple[str, str]]:
    """``(module, file)`` of every module of this process, but ``__main__``, that
    defines an :class:`~repro.complet.anchor.Anchor` subclass: what a child
    imports to unpickle the complets that arrive, and the template preloads."""
    found: dict[str, str] = {}
    classes = Anchor.__subclasses__()
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        file = file_of(sys.modules.get(cls.__module__))
        if file and cls.__module__ != "__main__":
            found[cls.__module__] = file
    return sorted(found.items())


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
        # If this is the one that starts it, the template imports while the
        # driver binds and builds its Core here.
        shared_template(_TEMPLATE_COMMAND)
        listeners: dict[str, socket.socket] = {}
        try:
            for name in self.names:  # every address is known before a child is forked
                listeners[name] = self._listen(name)
            scheduler = Scheduler(RealClock())
            self.transport = TcpTransport(scheduler, host=self.host)
            self.driver = Core(
                self.driver_name, self.transport, scheduler,
                store=FileStore(self.store_dir) if self.store_dir is not None else None,
            )
            self.addresses[self.driver_name] = self.transport.local_address(self.driver_name)
            for name in self.names:
                self.transport.add_peer(name, self.addresses[name])
            for name in self.names:
                self._spawn(name, listeners.pop(name))
            deadline = time.monotonic() + self.startup_timeout
            for name in self.names:  # each prints READY
                self.await_child(name, timeout=max(0.1, deadline - time.monotonic()))
        except Exception:
            for listener in listeners.values():
                listener.close()
            self.stop()
            raise
        return self

    def spawn_child(self, name: str, *, recover: bool = False) -> ChildProcess:
        """(Re-)spawn child Core ``name`` on its port, or on a fresh one (in
        :attr:`addresses`) if another socket took that; with ``recover=True``
        it restores its predecessor's checkpoints before READY (requires
        ``checkpoint_dir``).  Each spawn is a new life.  The driver's hub
        learns its address (which drops the connections to the predecessor)
        and takes the node up again; the caller is responsible for the old
        process being gone.
        """
        if name not in self.names:
            raise ConfigurationError(f"unknown child Core {name!r}")
        if self.driver is None or self.transport is None:
            raise ConfigurationError("CoreProcesses is not started")
        process = self._spawn(name, self._listen(name), recover)
        self.transport.add_peer(name, self.addresses[name])
        self.transport.set_node_down(name, down=False)
        return process

    def _listen(self, name: str) -> socket.socket:
        """A listening socket for child ``name``: on its last port, else a fresh one."""
        try:
            listener = listen(self.host, self.addresses.get(name, (self.host, 0))[1])
        except OSError:  # taken since by another socket
            listener = listen(self.host)
        self.addresses[name] = (self.host, listener.getsockname()[1])
        return listener

    def _spawn(self, name: str, listener: socket.socket, recover: bool = False) -> ChildProcess:
        """Have the template fork child ``name``, handed ``listener``, which is closed here."""
        spec = {
            "name": name,
            "peers": {
                peer: address for peer, address in self.addresses.items() if peer != name
            },
            "checkpoint_dir": self.checkpoint_dir,
            "checkpoint_interval": self.checkpoint_interval,
            "recover": recover,
            "store_dir": self.store_dir,
            "life": self.lives.get(name, 0),
        }
        self.lives[name] = spec["life"] + 1
        with listener:  # the child holds its own copy
            process = spawn(
                _TEMPLATE_COMMAND, spec, {"listener": listener.fileno()}, _complet_modules(),
                self.startup_timeout,
            )
        if name in self.processes:
            self.processes[name].close()  # the predecessor's pipes
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

    def stop(self) -> None:
        """Shut this deployment's children down, then release the driver hub.

        In a forked copy of the process that started them (the hub is
        :attr:`~repro.net.tcp.TcpTransport.forked`) the children are that
        process's: the copy closes its copies of the hub and of the
        children's pipes, and asks, ends or kills nothing.
        """
        driver = self.driver
        if self.transport is not None and self.transport.forked:
            for process in self.processes.values():
                process.close()
            self.processes.clear()
            self.transport.close()
            self.driver = self.transport = None
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
        terminate(list(self.processes.values()), self.shutdown_timeout)
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
    status = run_template(int(argv[1]), serve)
    if threading.active_count() > 1:
        # A thread some import started would hold the interpreter's exit up.
        sys.stderr.flush()
        os._exit(status)
    return status
