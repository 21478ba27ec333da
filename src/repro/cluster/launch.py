"""Multi-process deployment: Cores as separate OS processes over TCP.

This is the deployment shape of the paper — one stationary Core runtime
per machine/process, complets moving between them — realised with
:class:`~repro.net.tcp.TcpTransport`.  Two halves:

- **Child**: ``python -m repro.cluster.launch --serve --name B --port N
  --peer A=127.0.0.1:M ...`` runs one Core until it is shut down
  (remotely via the ``shutdown`` admin operation, or by signal).  It
  prints ``READY <name> <port>`` on stdout once its listener accepts.
- **Parent**: :class:`CoreProcesses` preallocates a port per Core,
  spawns the children with the full peer map, runs a local *driver*
  Core on its own hub (the experimenter's seat: instantiate, move,
  admin — everything goes through ordinary Core APIs over TCP), and
  tears everything down on exit.

The children inherit the parent's ``sys.path`` via ``PYTHONPATH`` so
anchor classes defined in the driving program (e.g. a test suite's
shared module) unpickle on the far side.

Cross-process recovery rides on durable checkpoints: pass
``checkpoint_dir`` and every child periodically snapshots its hosted
complets into a shared :class:`~repro.recovery.CheckpointStore`
directory there; a child started with ``--recover`` (what the
:class:`~repro.cluster.supervisor.Supervisor` does when it respawns a
dead one) restores the complets its predecessor last checkpointed —
identity preserved — before announcing READY (see docs/FAILURES.md).
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.complet.stub import stub_target_id
from repro.core.core import Core
from repro.errors import ConfigurationError, CoreError, FarGoError, TransportError
from repro.net.messages import MessageKind
from repro.net.tcp import TcpTransport
from repro.recovery.checkpoint import checkpoint_group, restore_record
from repro.recovery.store import CheckpointStore
from repro.sim.clock import RealClock
from repro.sim.scheduler import Scheduler

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


def _parse_peer(spec: str) -> tuple[str, tuple[str, int]]:
    try:
        name, address = spec.split("=", 1)
        host, port = address.rsplit(":", 1)
        return name, (host, int(port))
    except ValueError:
        raise ConfigurationError(
            f"peer spec {spec!r} is not of the form name=host:port"
        ) from None


class ChildCheckpointer:
    """Periodic durable checkpoints of every complet a child Core hosts.

    The in-process :class:`~repro.recovery.CheckpointManager` protects
    individual complets through the cluster harness; a child process has
    no harness, so this standalone checkpointer sweeps the whole
    repository instead — every hosted complet, with its local pull-group
    — into the shared :class:`~repro.recovery.CheckpointStore` directory.
    Each record names this Core as host, which is exactly what a
    successor process (``--recover``) and the cluster-side
    :class:`~repro.recovery.RecoveryManager` key on.
    """

    def __init__(self, core: Core, store: CheckpointStore, interval: float = 0.5) -> None:
        if interval <= 0.0:
            raise ConfigurationError(f"checkpoint interval must be positive: {interval}")
        self.core = core
        self.store = store
        self.interval = interval
        self._timer = None

    def start(self) -> None:
        self._timer = self.core.scheduler.call_every(self.interval, self.sweep)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def sweep(self) -> int:
        """Checkpoint every hosted complet once; records written."""
        core = self.core
        written = 0
        covered: set = set()
        for complet_id in core.repository.complet_ids():
            anchor = core.repository.get(complet_id)
            if anchor is None or complet_id in covered:
                continue  # gone, or captured with an earlier complet's group
            group, count = checkpoint_group(core, anchor, self.store)
            covered.update(group)
            written += count
        return written


def restore_from_store(core: Core, store: CheckpointStore) -> list[str]:
    """Restore the complets ``core``'s predecessor last checkpointed.

    Runs in a freshly-started child before it announces READY: every
    record whose last known host is this Core's name is brought back
    under its *original* identity (the repository is empty and no
    registry entry can contradict a newborn process, so
    ``keep_identity`` cannot be refused locally).  Returns the restored
    ids' display forms.
    """
    restored: list[str] = []
    for record in store.hosted_at(core.name):
        try:
            stub = restore_record(core, record)
        except FarGoError:
            logger.warning(
                "restore of %s at reborn %s failed",
                record.complet_id, core.name, exc_info=True,
            )
            continue
        restored.append(str(stub_target_id(stub)))
    return restored


def serve(
    name: str,
    port: int,
    peers: dict[str, tuple[str, int]],
    *,
    host: str = "127.0.0.1",
    ready_stream=None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: float = 0.5,
    recover: bool = False,
) -> None:
    """Run one Core in this process until it shuts down.

    Blocks; the loop alternates between sleeping and firing due timers,
    which is how heartbeats, watches, and deferred shutdowns execute in
    a real-clock process.  With ``checkpoint_dir`` the Core durably
    checkpoints its hosted complets every ``checkpoint_interval``
    seconds; with ``recover`` it first restores whatever its predecessor
    last checkpointed there (identity preserved), *before* READY.
    """
    scheduler = Scheduler(RealClock())
    transport = TcpTransport(scheduler, host=host, ports={name: port})
    # Peers first: the listener accepts as soon as the Core registers, and
    # a request that arrives then may already need an address to answer.
    for peer_name, address in peers.items():
        transport.add_peer(peer_name, address)
    core = Core(name, transport, scheduler)
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
    stream = ready_stream if ready_stream is not None else sys.stdout
    print(f"{READY_PREFIX} {name} {transport.local_address(name)[1]}", file=stream, flush=True)
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


@dataclass
class CoreProcesses:
    """A localhost multi-process deployment of Cores, driven in-process.

    Usage::

        with CoreProcesses(["A", "B"]) as procs:
            driver = procs.driver          # a real Core in this process
            stub = driver.instantiate(Message, "hello", at="A")
            driver.move(stub, "B")

    Every child is a separate Python interpreter running
    :func:`serve`; the driver Core lives on its own
    :class:`~repro.net.tcp.TcpTransport` hub in the calling process, so
    all interaction is genuine TCP traffic.
    """

    names: list[str]
    driver_name: str = "driver"
    host: str = "127.0.0.1"
    python: str = sys.executable
    startup_timeout: float = 20.0
    shutdown_timeout: float = 10.0
    #: Shared durable-checkpoint directory; children checkpoint their
    #: hosted complets there and a respawned child restores from it.
    checkpoint_dir: str | None = None
    checkpoint_interval: float = 0.5

    driver: Core | None = field(default=None, init=False)
    transport: TcpTransport | None = field(default=None, init=False)
    processes: dict[str, subprocess.Popen] = field(default_factory=dict, init=False)
    addresses: dict[str, tuple[str, int]] = field(default_factory=dict, init=False)

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
        cores = [*self.names, self.driver_name]
        for name, port in zip(cores, free_ports(self.host, len(cores))):
            self.addresses[name] = (self.host, port)

        for name in self.names:
            self.spawn_child(name)

        scheduler = Scheduler(RealClock())
        self.transport = TcpTransport(
            scheduler, host=self.host,
            ports={self.driver_name: self.addresses[self.driver_name][1]},
        )
        self.driver = Core(self.driver_name, self.transport, scheduler)
        for name in self.names:
            self.transport.add_peer(name, self.addresses[name])
        try:
            self._await_ready()
        except Exception:
            self.stop()
            raise
        return self

    def command_for(self, name: str, *, recover: bool = False) -> list[str]:
        """The argv that runs child Core ``name`` (used for respawns too)."""
        command = [
            self.python, "-m", "repro.cluster.launch",
            "--serve", "--name", name, "--host", self.host,
            "--port", str(self.addresses[name][1]),
        ]
        for peer_name, (peer_host, peer_port) in self.addresses.items():
            if peer_name != name:
                command += ["--peer", f"{peer_name}={peer_host}:{peer_port}"]
        if self.checkpoint_dir is not None:
            command += [
                "--checkpoint-dir", self.checkpoint_dir,
                "--checkpoint-interval", str(self.checkpoint_interval),
            ]
            if recover:
                command.append("--recover")
        return command

    def spawn_child(self, name: str, *, recover: bool = False) -> subprocess.Popen:
        """(Re-)spawn child Core ``name`` on its preallocated address.

        With ``recover=True`` the child restores its predecessor's
        durable checkpoints before READY (requires ``checkpoint_dir``).
        Replaces any previous process handle for ``name``; the caller is
        responsible for the old process being gone.
        """
        if name not in self.addresses:
            raise ConfigurationError(f"unknown child Core {name!r}")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        process = subprocess.Popen(
            self.command_for(name, recover=recover),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.processes[name] = process
        return process

    def await_child(
        self, name: str, timeout: float | None = None, *, restored: bool = False
    ) -> None:
        """Block until child ``name`` has answered one request.

        A listener that merely accepts is not enough: it does so before
        the child's Core has registered its handlers.  ``ADMIN_QUERY`` is
        the last one it registers, so an answered admin request means
        every request the caller sends next finds its handler.  Until the
        listener is there, one refused connect every 10 ms is all it
        costs to notice it promptly.

        A ``--recover`` child answers while it is still restoring and
        prints READY only afterwards; with ``restored`` (whoever respawns
        one and then asks what it hosts) the READY line is waited for as
        well.  :meth:`start` never reads a child's stdout — that stream
        belongs to its caller.
        """
        assert self.driver is not None and self.transport is not None
        budget = timeout if timeout is not None else self.startup_timeout
        deadline = time.monotonic() + budget
        process = self.processes[name]
        while True:
            if self.transport.probe(name, timeout=1.0):
                try:
                    self.driver.peer.request(
                        name, MessageKind.ADMIN_QUERY, ("complets", {}), timeout=1.0
                    )
                    break
                except (CoreError, TransportError):
                    pass  # listening before its handlers are up
            if process.poll() is not None:
                _out, err = process.communicate()
                raise CoreError(
                    f"child Core {name!r} exited with status "
                    f"{process.returncode} during startup:\n{err}"
                )
            if time.monotonic() > deadline:
                raise CoreError(
                    f"child Core {name!r} did not come up within {budget}s"
                )
            time.sleep(0.01)
        if restored:
            assert process.stdout is not None
            with selectors.DefaultSelector() as readable:
                readable.register(process.stdout, selectors.EVENT_READ)
                line = "nothing"
                # READY is the only line a child prints there, whole and flushed.
                if readable.select(max(0.0, deadline - time.monotonic())):
                    line = process.stdout.readline()
            if not line.startswith(READY_PREFIX):
                raise CoreError(
                    f"child Core {name!r} printed {line!r} where READY was "
                    f"expected within {budget}s"
                )

    def _await_ready(self) -> None:
        """Block until every child has answered one request."""
        deadline = time.monotonic() + self.startup_timeout
        for name in self.names:
            self.await_child(name, timeout=max(0.1, deadline - time.monotonic()))

    def stop(self) -> None:
        """Shut children down gracefully, then release the driver hub."""
        driver = self.driver
        for name, process in self.processes.items():
            if process.poll() is not None:
                continue
            if driver is not None and driver.is_running:
                try:
                    # The delay lets the reply escape before the child's
                    # listener closes.
                    driver.admin(name, "shutdown", delay=0.1)
                except (CoreError, TransportError):
                    pass
        for process in self.processes.values():
            try:
                process.wait(timeout=self.shutdown_timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=self.shutdown_timeout)
        self.processes.clear()
        if driver is not None and driver.is_running:
            driver.shutdown()
        if self.transport is not None:
            self.transport.close()
        self.driver = None
        self.transport = None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.launch",
        description="Run one FarGo Core as an OS process over TCP.",
    )
    parser.add_argument("--serve", action="store_true", help="run a Core until shut down")
    parser.add_argument("--name", help="Core name")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="listener port (0 = ephemeral)")
    parser.add_argument(
        "--peer", action="append", default=[], metavar="NAME=HOST:PORT",
        help="address of another Core (repeatable)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="shared CheckpointStore directory for durable checkpoints",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=0.5,
        help="seconds between durable checkpoint sweeps",
    )
    parser.add_argument(
        "--recover", action="store_true",
        help="restore this Core's last durable checkpoints before READY",
    )
    args = parser.parse_args(argv)
    if not args.serve or not args.name:
        parser.error("--serve and --name are required")
    if args.recover and not args.checkpoint_dir:
        parser.error("--recover requires --checkpoint-dir")
    peers = dict(_parse_peer(spec) for spec in args.peer)
    serve(
        args.name, args.port, peers, host=args.host,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        recover=args.recover,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
