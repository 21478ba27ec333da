"""Process supervision: self-healing multi-process TCP deployments.

The :class:`Supervisor` keeps the children of a multi-process deployment
(:mod:`repro.cluster.launch`) alive:

- **Watch** — a monitor thread fuses ``waitpid`` (``poll()`` on the
  child's handle, fed by the template process that forked it: an exit
  code or signal; once that template is dead, the child's pidfd) with the verdicts of the driver's
  :class:`~repro.recovery.FailureDetector` (``driver.detector``), whose
  heartbeat rounds it runs over the children ``waitpid`` says are alive.
  A dead child is restarted.  One alive but failed by the detector —
  hung, or cut off — is *partitioned*: restarting it would fork the
  deployment, so only the verdict is recorded.

- **Restart** — one :class:`RestartPolicy` bounds the healing of every
  child: at most ``max_restarts`` within ``window`` seconds, with
  :class:`~repro.net.retry.RetryPolicy` backoff between consecutive
  respawns, then it gives up.  A dead child respawns on its preallocated
  port, or on a fresh one that every survivor learns through
  ``add_peer``, as a new life of its name: it numbers its complets and
  trackers from a range no earlier life used, so nothing a survivor
  heard from the predecessor can be mistaken for the successor.

- **Re-admit** — the successor restores its predecessor's durable
  checkpoints under the *original* identities before it prints READY,
  and the supervisor waits for that line.  It then refreshes the
  driver's address book, hands the successor the driver's tracing
  setting, and repairs every survivor's trackers and location records
  from the successor's tracker map, with the sequence recovery runs
  (:func:`repro.recovery.recovery.written_off`).

- **Give up** — a child that exhausts its restart budget stays down,
  and the supervisor publishes a ``coreFailed`` verdict for it on the
  driver's bus.  Whoever trusts it restores the child's complets: the
  cluster's :class:`~repro.recovery.RecoveryManager`
  (``Cluster.enable_recovery()``, which trusts it because ``waitpid`` says
  the process is gone), or a layout script's ``failover``.

Observability: ``supervisor.restarts`` counter, ``supervisor.mttr``
histogram (detection-to-readmission, real seconds), and
``supervisor:restart`` spans on the driver Core; per-child state via
``CoreAdmin.supervisor_state()`` and the shell's ``supervisor`` command.
"""

from __future__ import annotations

import logging
import signal as signal_module
import threading
import time
from dataclasses import dataclass, field

from repro.cluster.launch import UNREPORTED_EXIT, CoreProcesses, free_ports
from repro.core.admin import CoreAdmin
from repro.core.events import CORE_FAILED
from repro.errors import ConfigurationError, CoreError, FarGoError, TransportError
from repro.net.retry import RetryPolicy
from repro.recovery.detector import FAILED, DetectorConfig, FailureDetector
from repro.recovery.recovery import written_off

logger = logging.getLogger(__name__)

#: Default backoff schedule between consecutive respawns of one child.
DEFAULT_BACKOFF = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=2.0)


@dataclass(frozen=True)
class RestartPolicy:
    """How stubbornly one child Core is kept alive.

    ``max_restarts`` bounds restarts within the sliding ``window``
    (seconds); exceeding it gives the child up as failed.
    ``backoff`` is the delay schedule between *consecutive* respawns —
    ``backoff.backoff(n)`` before the n-th restart of an unhealthy
    streak; the streak resets once a child stays up ``healthy_after``
    seconds.
    """

    max_restarts: int = 3
    window: float = 60.0
    backoff: RetryPolicy = field(default=DEFAULT_BACKOFF)
    healthy_after: float = 5.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be non-negative, got {self.max_restarts}"
            )
        if self.window <= 0.0:
            raise ConfigurationError(f"window must be positive, got {self.window}")


@dataclass(slots=True)
class _ChildState:
    """Mutable supervision record for one child Core."""

    status: str = "running"  # running | restarting | partitioned | failed
    restarts: int = 0
    #: Monotonic instants of restarts inside the policy window.
    recent: list = field(default_factory=list)
    #: Consecutive-restart streak (drives the backoff schedule).
    streak: int = 0
    last_exit: str | None = None
    last_verdict: str = "alive"
    last_restart_at: float | None = None
    last_mttr: float | None = None
    next_backoff: float = 0.0

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "restarts": self.restarts,
            "recent_restarts": len(self.recent),
            "streak": self.streak,
            "last_exit": self.last_exit,
            "last_verdict": self.last_verdict,
            "last_mttr": self.last_mttr,
            "next_backoff": self.next_backoff,
        }


def describe_exit(returncode: int) -> str:
    """Human-readable exit cause from a ``Popen.returncode``."""
    if returncode == UNREPORTED_EXIT:
        return "exit unreported (its template died first)"
    if returncode < 0:
        try:
            return f"signal {signal_module.Signals(-returncode).name}"
        except ValueError:
            return f"signal {-returncode}"
    return f"exit {returncode}"


class Supervisor:
    """Keeps a :class:`~repro.cluster.launch.CoreProcesses` fleet alive.

    Usage::

        with CoreProcesses(["A", "B"], checkpoint_dir=shared) as procs:
            supervisor = Supervisor(procs)
            supervisor.start()
            ...                       # SIGKILL a child; it comes back
            supervisor.stop()

    One policy applies to every child.  The supervisor attaches itself
    to the driver Core, so ``admin(driver).supervisor_state()`` works
    from anywhere in the deployment.
    """

    def __init__(
        self,
        procs: CoreProcesses,
        *,
        policy: RestartPolicy | None = None,
        detector: DetectorConfig | None = None,
        poll_interval: float = 0.05,
    ) -> None:
        if procs.driver is None or procs.transport is None:
            raise ConfigurationError("CoreProcesses must be started before supervising")
        self.procs = procs
        self.driver = procs.driver
        self.policy = policy if policy is not None else RestartPolicy()
        self.poll_interval = poll_interval
        self.children: dict[str, _ChildState] = {name: _ChildState() for name in procs.names}
        #: The driver's view of the network, ticked by the monitor thread.
        self.detector = self.driver.detector = FailureDetector(
            self.driver, self._alive, detector
        )
        #: (monotonic, message) decision log, mirroring RecoveryManager.log.
        self.log: list[tuple[float, str]] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self.driver.supervisor = self

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Supervisor":
        if self._thread is not None:
            raise ConfigurationError("Supervisor is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._monitor, name="repro-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def state(self) -> dict:
        """Per-child supervision state (admin/shell surface)."""
        with self._lock:
            return {
                "running": self._thread is not None and self._thread.is_alive(),
                "children": {
                    name: child.to_dict() for name, child in self.children.items()
                },
                "policy": {
                    "max_restarts": self.policy.max_restarts,
                    "window": self.policy.window,
                    "healthy_after": self.policy.healthy_after,
                },
            }

    # -- monitor loop ------------------------------------------------------

    def _alive(self) -> list[str]:
        """The children ``waitpid`` says are alive: the detector's peers."""
        children = list(self.procs.processes.items())
        return [name for name, process in children if process.poll() is None]

    def _monitor(self) -> None:
        next_round = 0.0
        while not self._stop.is_set():
            if time.monotonic() >= next_round:
                next_round = time.monotonic() + self.detector.config.interval
                self.detector.tick()
            for name in list(self.procs.names):
                try:
                    self._check_child(name)
                except FarGoError:
                    logger.warning("supervision pass for %s failed", name, exc_info=True)
            self._stop.wait(self.poll_interval)

    def _check_child(self, name: str) -> None:
        child = self.children[name]
        if child.status == "failed":
            return
        process = self.procs.processes.get(name)
        returncode = process.poll() if process is not None else None
        now = time.monotonic()
        if returncode is None and process is not None:
            # The OS says alive; the detector says whether it answers.  A
            # hung or cut-off child is only recorded: restarting it would
            # fork the deployment.
            verdict = self.detector.verdict(name)
            child.status = "partitioned" if verdict == FAILED else "running"
            child.last_verdict = "partitioned" if verdict == FAILED else verdict
            if (
                child.streak
                and child.last_restart_at is not None
                and now - child.last_restart_at >= self.policy.healthy_after
            ):
                child.streak = 0  # stayed up: the unhealthy streak is over
            return
        # The process is gone: waitpid gives the ground truth the
        # network-level detector cannot — exit code or fatal signal.
        cause = describe_exit(returncode) if returncode is not None else "never started"
        child.last_exit = cause
        child.last_verdict = "dead"
        self.detector.forget(name)  # a successor is a new peer, with its own grace
        self._restart(name, child, cause, detected_at=now)

    # -- restart path ------------------------------------------------------

    def _restart(self, name: str, child: _ChildState, cause: str, detected_at: float) -> None:
        policy = self.policy
        child.recent = [t for t in child.recent if detected_at - t <= policy.window]
        if len(child.recent) >= policy.max_restarts:
            self._give_up(name, child, cause)
            return
        child.status = "restarting"
        child.streak += 1
        delay = policy.backoff.backoff(child.streak) if child.streak > 1 else 0.0
        child.next_backoff = policy.backoff.backoff(child.streak + 1)
        self._log(f"child {name} died ({cause}); restart #{child.streak} in {delay:.2f}s")
        if delay > 0.0 and self._stop.wait(delay):
            return
        recover = self.procs.checkpoint_dir is not None
        with self.driver.tracer.span(
            "supervisor:restart", category="supervision",
            child=name, cause=cause, attempt=child.streak, recover=recover,
        ):
            try:
                self._respawn(name, recover=recover)
            except (CoreError, TransportError, OSError) as exc:
                self._log(f"respawn of {name} failed: {exc}")
                # The next monitor pass sees the corpse and retries
                # (counting against the same window/backoff streak).
                return
            self._readmit(name)
        mttr = time.monotonic() - detected_at
        child.restarts += 1
        child.recent.append(detected_at)
        child.last_restart_at = time.monotonic()
        child.last_mttr = mttr
        child.status = "running"
        child.last_verdict = "alive"
        self.driver.metrics.counter("supervisor.restarts").inc()
        self.driver.metrics.histogram("supervisor.mttr").observe(mttr)
        self._log(f"child {name} restored in {mttr:.2f}s (restart #{child.restarts})")

    def _respawn(self, name: str, *, recover: bool) -> None:
        """Spawn the successor on the preallocated port, or a fresh one."""
        self.procs.spawn_child(name, recover=recover)
        try:
            self.procs.await_child(name)
            return
        except CoreError:
            process = self.procs.processes.get(name)
            if process is not None and process.poll() is None:
                process.kill()
                process.wait(timeout=5.0)
        # The preallocated port would not come back (e.g. still held by
        # a lingering socket) — fall back to a fresh port and tell the
        # whole deployment about the new address.
        old = self.procs.addresses[name]
        fresh = (old[0], free_ports(old[0], 1)[0])
        self.procs.addresses[name] = fresh
        self._log(f"child {name} could not rebind {old[1]}; moving to port {fresh[1]}")
        self.procs.spawn_child(name, recover=recover)
        self.procs.await_child(name)

    def _readmit(self, name: str) -> None:
        """Reconnect and repair the deployment around the reborn Core."""
        address = self.procs.addresses[name]
        # Refresh the driver's address book: even on the same port, the
        # pooled connections point at the dead predecessor.
        self.procs.transport.add_peer(name, address)
        reborn = CoreAdmin(self.driver, name)
        children = [CoreAdmin(self.driver, other) for other in self._alive() if other != name]
        for admin in children:
            try:
                admin.add_peer(name, address)
            except (CoreError, TransportError) as exc:
                self._log(f"address of {name} did not reach {admin.target}: {exc}")

        relocated: dict = {}
        with written_off([CoreAdmin(self.driver), *children], name, relocated):
            try:
                if self.driver.tracer.enabled:
                    reborn.set_tracing(True)  # a successor is born with it off
                # The reborn Core restored its complets under fresh tracker
                # serials; survivors' trackers still carry the predecessor's.
                relocated.update(reborn.hosted_trackers())
            except (CoreError, TransportError) as exc:
                self._log(f"reborn {name} did not answer the driver: {exc}")

    def _give_up(self, name: str, child: _ChildState, cause: str) -> None:
        """Budget exhausted: the child stays down, and the driver's bus hears
        a ``coreFailed`` verdict for whoever restores its complets."""
        child.status = "failed"
        self._log(
            f"child {name} exceeded restart budget "
            f"({self.policy.max_restarts}/{self.policy.window:.0f}s, last cause {cause}); "
            f"it stays down"
        )
        self.driver.metrics.counter("supervisor.escalations").inc()
        self.driver.events.publish(CORE_FAILED, core=name, cause=cause)

    # -- bookkeeping -------------------------------------------------------

    def _log(self, message: str) -> None:
        with self._lock:
            self.log.append((time.monotonic(), message))
        logger.info("%s", message)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{child.status}" for name, child in sorted(self.children.items())
        )
        return f"<Supervisor {parts}>"
