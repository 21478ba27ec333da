"""Integration: supervised multi-process deployments that heal themselves.

Each test SIGKILLs (or exhausts the restart budget of) a real child
process and checks the :class:`~repro.cluster.supervisor.Supervisor`
end-to-end: death detected via ``waitpid``, the successor respawned on
the preallocated port, durable checkpoints replayed identity-preserving
from the shared :class:`~repro.recovery.CheckpointStore`, and the
surviving deployment repaired so pre-kill references keep working.  A
child past its budget, or killed with no supervisor at all, is restored
by the cluster's :class:`~repro.recovery.RecoveryManager` on ``procs``.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time

import pytest

from repro.cluster import Cluster, CoreProcesses, RestartPolicy, Supervisor
from repro.cluster.failures import FailureInjector
from repro.cluster.launch import UNREPORTED_EXIT
from repro.cluster.supervisor import describe_exit
from repro.cluster.workload import Echo
from repro.core.events import CORE_FAILED, CORE_RECOVERED, CORE_SUSPECTED
from repro.errors import ConfigurationError
from repro.recovery import CheckpointStore, DetectorConfig
from repro.shell.shell import FarGoShell
from tests.anchors import Holder, Probe
from tests.procfs import is_running, parent_of

pytestmark = pytest.mark.tcp

CHECKPOINT_INTERVAL = 0.2


def wait_until(predicate, timeout: float = 20.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def hosted_at(procs: CoreProcesses, core_name: str) -> set[str]:
    return set(procs.driver.admin(core_name, "complets"))


def wait_for_checkpoint(checkpoint_dir: str, complet_id) -> None:
    """Block until a sweep that began after this call has persisted the complet.

    Every sweep appends a generation.  The sweep that writes the next one
    may have taken its snapshot before the caller's last invocation
    returned; the one after it cannot have.  No clock is compared.
    """
    store = CheckpointStore(checkpoint_dir)

    def newest() -> int:
        generations = store.generations(complet_id)
        return generations[-1]["gen"] if generations else 0

    seen = newest()
    assert wait_until(lambda: newest() >= seen + 2), (
        f"{complet_id} was not checkpointed twice more in {checkpoint_dir}"
    )


def child_state(supervisor: Supervisor, name: str) -> dict:
    return supervisor.state()["children"][name]


@pytest.fixture()
def deployment():
    """Fresh two-child supervised deployment with durable checkpoints.

    Function-scoped on purpose: every test kills children, so no state
    may leak between tests.
    """
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-supervised-")
    with CoreProcesses(
        ["alpha", "beta"],
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=CHECKPOINT_INTERVAL,
    ) as procs:
        yield procs, checkpoint_dir
    shutil.rmtree(checkpoint_dir, ignore_errors=True)


class TestIdentityPreservingRestart:
    def test_sigkill_mid_traffic_restores_identity(self, deployment):
        procs, checkpoint_dir = deployment
        with Supervisor(procs) as supervisor:
            probe = Probe(_core=procs.driver, _at="alpha")
            probe.note("pre-kill")
            original_id = str(probe._fargo_target_id)
            wait_for_checkpoint(checkpoint_dir, probe._fargo_target_id)

            old_pid = procs.processes["alpha"].pid
            os.kill(old_pid, signal.SIGKILL)
            assert wait_until(
                lambda: child_state(supervisor, "alpha")["restarts"] >= 1
                and child_state(supervisor, "alpha")["status"] == "running"
            ), f"alpha never healed: {child_state(supervisor, 'alpha')}"

            # A genuinely new process, hosting the *same* complet identity.
            assert procs.processes["alpha"].pid != old_pid
            assert original_id in hosted_at(procs, "alpha")
            # The pre-kill stub completes an invocation against the
            # reborn host, and the checkpointed state survived.
            probe.note("post-rebirth")
            history = probe.get_history()
            assert "pre-kill" in history
            assert "post-rebirth" in history

            state = child_state(supervisor, "alpha")
            assert state["last_exit"] == "signal SIGKILL"
            assert state["last_mttr"] is not None and state["last_mttr"] > 0.0

    def test_a_child_outliving_its_template_is_seen_to_die_and_restarted(self, deployment):
        """No template is left to report alpha's exit: its pidfd does, and it comes back."""
        procs, _checkpoint_dir = deployment
        with Supervisor(procs) as supervisor:
            steady = Probe(_core=procs.driver, _at="beta")
            alpha = procs.processes["alpha"]
            template = parent_of(alpha.pid)
            os.kill(template, signal.SIGKILL)
            assert wait_until(lambda: not is_running(template))
            steady.note("template gone")
            os.kill(alpha.pid, signal.SIGKILL)
            assert wait_until(
                lambda: child_state(supervisor, "alpha")["restarts"] >= 1
                and child_state(supervisor, "alpha")["status"] == "running"
            ), f"alpha never healed: {child_state(supervisor, 'alpha')}"
            assert child_state(supervisor, "alpha")["last_exit"] == describe_exit(UNREPORTED_EXIT)
            reborn = procs.processes["alpha"]
            assert reborn.pid != alpha.pid and parent_of(reborn.pid) != template
            assert procs.driver.admin("alpha", "complets") == []
            steady.note("alpha back")
            assert steady.get_history() == ["template gone", "alpha back"]
            assert child_state(supervisor, "beta")["restarts"] == 0

    def test_restart_metrics_and_spans(self, deployment):
        procs, checkpoint_dir = deployment
        procs.driver.tracer.enabled = True
        with Supervisor(procs) as supervisor:
            probe = Probe(_core=procs.driver, _at="beta")
            probe.note("x")
            wait_for_checkpoint(checkpoint_dir, probe._fargo_target_id)
            procs.processes["beta"].kill()
            assert wait_until(
                lambda: child_state(supervisor, "beta")["restarts"] >= 1
            )
            assert procs.driver.metrics.counter("supervisor.restarts").value >= 1
            histogram = procs.driver.metrics.histogram("supervisor.mttr")
            assert histogram.count >= 1
            names = [span.name for span in procs.driver.tracer.spans()]
            assert "supervisor:restart" in names


    def test_successor_inherits_the_deployments_tracing(self):
        """Spans of an invocation the successor serves reach ``cluster.spans()``."""
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-supervised-")
        cluster = Cluster(
            transport=CoreProcesses(
                ["alpha", "beta"],
                checkpoint_dir=checkpoint_dir,
                checkpoint_interval=CHECKPOINT_INTERVAL,
            ),
            tracing=True,
        )
        try:
            with Supervisor(cluster.processes) as supervisor:
                probe = Probe(_core=cluster.seat, _at="alpha")
                probe.note("pre-kill")
                wait_for_checkpoint(checkpoint_dir, probe._fargo_target_id)
                os.kill(cluster.processes.processes["alpha"].pid, signal.SIGKILL)
                assert wait_until(
                    lambda: child_state(supervisor, "alpha")["restarts"] >= 1
                    and child_state(supervisor, "alpha")["status"] == "running"
                ), f"alpha never healed: {child_state(supervisor, 'alpha')}"
                cluster.clear_spans()  # alpha's can only be the successor's anyway
                probe.note("post-rebirth")
                served = [span for span in cluster.spans() if span.core == "alpha"]
                assert any(span.name == "exec:note" for span in served), cluster.spans()
        finally:
            cluster.close()
            shutil.rmtree(checkpoint_dir, ignore_errors=True)


@pytest.fixture()
def recovering():
    """A two-child cluster on ``procs`` with recovery over its checkpoint directory."""
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-supervised-")
    cluster = Cluster(
        transport=CoreProcesses(
            ["alpha", "beta"],
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=CHECKPOINT_INTERVAL,
        )
    )
    try:
        cluster.enable_recovery()
        yield cluster, checkpoint_dir
    finally:
        cluster.close()
        shutil.rmtree(checkpoint_dir, ignore_errors=True)


def killed_with_a_checkpoint(cluster: Cluster, checkpoint_dir: str) -> Probe:
    """A Probe at alpha, durably checkpointed, whose host was then SIGKILLed."""
    probe = Probe(_core=cluster.seat, _at="alpha")
    probe.note("pre-kill")
    wait_for_checkpoint(checkpoint_dir, probe._fargo_target_id)
    process = cluster.processes.processes["alpha"]
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=10.0)
    return probe


class TestEscalation:
    def test_budget_exhaustion_recovers_with_identity(self, recovering):
        """A given-up child is a coreFailed verdict; the RecoveryManager restores it."""
        cluster, checkpoint_dir = recovering
        # Zero budget: the very first death gives the child up.
        with Supervisor(cluster.processes, policy=RestartPolicy(max_restarts=0)) as supervisor:
            probe = Probe(_core=cluster.seat, _at="alpha")
            probe.note("pre-kill")
            original_id = str(probe._fargo_target_id)
            wait_for_checkpoint(checkpoint_dir, probe._fargo_target_id)

            cluster.processes.processes["alpha"].kill()
            assert wait_until(lambda: cluster.recovery.reports), "nothing was recovered"
            report = cluster.recovery.reports[-1]
            assert (report.failed, report.destination) == ("alpha", "beta")
            assert report.restored == [original_id] and report.unrepaired == []
            state = child_state(supervisor, "alpha")
            assert state["status"] == "failed"
            assert state["restarts"] == 0
            assert cluster.seat.metrics.counter("supervisor.escalations").value == 1
            # Identity kept: the pre-kill stub answers from beta, state intact.
            assert original_id in cluster.complets_at("beta")
            probe.note("post-recovery")
            assert probe.get_history() == ["pre-kill", "post-recovery"]


class TestRecoveryWithoutSupervisor:
    def test_recover_core_by_hand(self, recovering):
        cluster, checkpoint_dir = recovering
        probe = killed_with_a_checkpoint(cluster, checkpoint_dir)
        report = cluster.recovery.recover_core("alpha")
        assert report.destination == "beta"  # never the seat
        assert report.restored == [str(probe._fargo_target_id)]
        assert "pre-kill" in probe.get_history()

    def test_restore_complet_by_hand(self, recovering):
        cluster, checkpoint_dir = recovering
        probe = killed_with_a_checkpoint(cluster, checkpoint_dir)
        original_id = str(probe._fargo_target_id)
        assert cluster.recovery.restore_complet(original_id) == original_id
        assert original_id in cluster.complets_at("beta")
        # Alive now: a second restore is a fresh identity beside it.
        again = cluster.recovery.restore_complet(original_id)
        assert again != original_id and again in cluster.complets_at("beta")

    def test_needs_the_childrens_checkpoint_directory(self):
        cluster = Cluster(["alpha"], transport="procs")
        try:
            with pytest.raises(ConfigurationError, match="checkpoint_dir"):
                cluster.enable_recovery()
            assert cluster.recovery is None
        finally:
            cluster.close()


class TestLiveness:
    def test_a_hung_child_is_failed_but_not_restarted(self, recovering):
        """SIGSTOP: waitpid says alive and the listen backlog still accepts a
        connect, but no heartbeat is answered.  The driver's detector fails
        the child; nothing restarts or restores it; SIGCONT brings it back."""
        cluster, _ = recovering
        verdicts: list[str] = []

        def record(event) -> None:
            if event.data["core"] == "alpha":
                verdicts.append(event.name)

        for name in (CORE_SUSPECTED, CORE_FAILED, CORE_RECOVERED):
            cluster.seat.events.subscribe(name, record)
        config = DetectorConfig(interval=0.1, suspect_after=0.2, fail_after=0.4)
        with Supervisor(cluster.processes, detector=config) as supervisor:
            pid = cluster.processes.processes["alpha"].pid
            os.kill(pid, signal.SIGSTOP)
            try:
                assert wait_until(
                    lambda: child_state(supervisor, "alpha")["status"] == "partitioned",
                    timeout=10.0,
                ), child_state(supervisor, "alpha")
                assert verdicts == [CORE_SUSPECTED, CORE_FAILED]
                assert child_state(supervisor, "alpha")["last_verdict"] == "partitioned"
                assert child_state(supervisor, "alpha")["restarts"] == 0
                assert cluster.recovery.reports == []
            finally:
                os.kill(pid, signal.SIGCONT)
            assert wait_until(lambda: child_state(supervisor, "alpha")["status"] == "running")
            assert verdicts == [CORE_SUSPECTED, CORE_FAILED, CORE_RECOVERED]
            assert child_state(supervisor, "alpha")["restarts"] == 0
            assert "alpha" in cluster.seat.detector.state()

    def test_crash_and_shutdown_of_a_child_heal(self, recovering):
        """The injector's crash is a SIGKILL and the shell's shutdown a clean
        exit; the Supervisor brings both children back."""
        cluster, _ = recovering
        with Supervisor(cluster.processes) as supervisor:
            FailureInjector(cluster).crash_core_at(cluster.now, "alpha")
            cluster.advance(0.05)
            assert FarGoShell(cluster).execute("shutdown beta") == "core beta shut down"

            def healed(name: str) -> bool:
                state = child_state(supervisor, name)
                return state["restarts"] == 1 and state["status"] == "running"

            assert wait_until(lambda: healed("alpha") and healed("beta")), supervisor.state()
            assert child_state(supervisor, "alpha")["last_exit"] == "signal SIGKILL"
            assert child_state(supervisor, "beta")["last_exit"] == "exit 0"
            assert sorted(cluster.running_names()) == ["alpha", "beta", "driver"]
            assert cluster.recovery.reports == []

    def test_an_exited_child_is_down_and_unreachable(self):
        """waitpid, not the driver's address book, says whether a child is up."""
        cluster = Cluster(["alpha", "beta"], transport="procs")
        try:
            process = cluster.processes.processes["alpha"]
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=10.0)
            assert "alpha" not in cluster.running_names()
            assert not cluster.is_core_up("alpha")
            assert not cluster.can_reach("driver", "alpha")
            assert cluster.is_core_up("beta") and cluster.can_reach("driver", "beta")
        finally:
            cluster.close()


class TestDurableCheckpoints:
    def test_checkpoints_readable_across_processes(self, deployment):
        """The parent reads records the child process wrote, and the
        respawned child restores exactly those records."""
        procs, checkpoint_dir = deployment
        probe = Probe(_core=procs.driver, _at="alpha")
        probe.note("persisted")
        wait_for_checkpoint(checkpoint_dir, probe._fargo_target_id)

        store = CheckpointStore(checkpoint_dir)
        records = store.hosted_at("alpha")
        assert [str(record.complet_id) for record in records] == [
            str(probe._fargo_target_id)
        ]
        assert records[0].host == "alpha"
        assert len(records[0].snapshot.stream) > 0

    def test_regenerating_state_advances_generations(self, deployment):
        procs, checkpoint_dir = deployment
        probe = Probe(_core=procs.driver, _at="alpha")
        probe.note("gen-1")
        wait_for_checkpoint(checkpoint_dir, probe._fargo_target_id)
        store = CheckpointStore(checkpoint_dir)
        cid = store.by_str(str(probe._fargo_target_id)).complet_id
        first = store.generations(cid)[-1]["gen"]
        probe.note("gen-2")
        assert wait_until(
            lambda: store.generations(cid)[-1]["gen"] > first
        ), "mutated complet never produced a newer durable generation"


class TestTransportReconnect:
    def test_survivor_reference_works_after_rebirth(self, deployment):
        """A stub held by a *survivor* child (not just the driver) keeps
        working once its target Core is killed and reborn."""
        procs, checkpoint_dir = deployment
        with Supervisor(procs) as supervisor:
            probe = Probe(_core=procs.driver, _at="alpha")
            holder = Holder(_core=procs.driver, _at="beta")
            holder.set_ref(probe)
            holder.get_ref().note("before-kill")
            wait_for_checkpoint(checkpoint_dir, probe._fargo_target_id)

            procs.processes["alpha"].kill()
            assert wait_until(
                lambda: child_state(supervisor, "alpha")["restarts"] >= 1
                and child_state(supervisor, "alpha")["status"] == "running"
            )
            # beta's pooled connection and trackers were repaired during
            # re-admission; the held stub reaches the reborn alpha.
            holder.get_ref().note("after-rebirth")
            history = probe.get_history()
            assert "before-kill" in history
            assert "after-rebirth" in history

    def test_driver_probe_and_admin_after_rebirth(self, deployment):
        procs, checkpoint_dir = deployment
        with Supervisor(procs) as supervisor:
            probe = Probe(_core=procs.driver, _at="alpha")
            wait_for_checkpoint(checkpoint_dir, probe._fargo_target_id)
            procs.processes["alpha"].kill()
            assert wait_until(
                lambda: child_state(supervisor, "alpha")["restarts"] >= 1
            )
            snapshot = procs.driver.admin("alpha", "snapshot")
            assert snapshot["core"] == "alpha"
            admin_state = procs.driver.admin(procs.driver.name, "supervisor")
            assert admin_state["children"]["alpha"]["restarts"] >= 1


class TestPointersAcrossRebirth:
    def test_a_successor_registers_where_its_predecessor_left_a_tombstone(self):
        """A reborn Core's trackers never take a serial its predecessor's had.

        beta's tracker for the echo shortens away from alpha's, which keeps
        a tombstone of it, while beta's last checkpoint still names alpha's.
        The successor restores that checkpoint under a tracker serial of
        its own life, so its registration at alpha stands, and no sweep
        collects alpha's tracker under a live reference.
        """
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-supervised-")
        try:
            # Long sweeps: beta dies before one checkpoints the shortened reference.
            with CoreProcesses(
                ["alpha", "beta"], checkpoint_dir=checkpoint_dir, checkpoint_interval=1.0
            ) as procs, Supervisor(procs) as supervisor:
                driver = procs.driver
                echo = Echo("e", _core=driver, _at="alpha")
                # Created with its reference, as a restore creates it: the
                # echo's tracker at beta is the first there, both times.
                holder = Holder(echo, _core=driver, _at="beta")
                wait_for_checkpoint(checkpoint_dir, holder._fargo_target_id)
                driver.move(echo, driver.name)
                assert holder.call_ref() == "e"  # beta's tracker now points at the driver's
                at_driver = driver.repository.existing_tracker(echo._fargo_target_id)
                predecessor = {p for p in at_driver.remote_pointers if p.core == "beta"}
                assert len(predecessor) == 1
                procs.processes["beta"].kill()
                assert wait_until(
                    lambda: child_state(supervisor, "beta")["restarts"] >= 1
                    and child_state(supervisor, "beta")["status"] == "running"
                ), f"beta never healed: {child_state(supervisor, 'beta')}"

                assert wait_until(lambda: driver.admin("alpha", "collect_trackers") == 0)
                assert holder.call_ref() == "e"
                # The dead life's registration stays; the successor's is another serial.
                successor = {p for p in at_driver.remote_pointers if p.core == "beta"}
                assert len(successor - predecessor) == 1
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)


def healed(supervisor: Supervisor, name: str) -> bool:
    """Wait until ``name`` has been restarted once and runs again."""
    return wait_until(
        lambda: child_state(supervisor, name)["restarts"] >= 1
        and child_state(supervisor, name)["status"] == "running"
    )


class TestIdentitiesAcrossLives:
    """A reborn child mints complet ids no earlier life of its name handed out."""

    def test_a_new_complet_beside_a_restored_one(self, deployment):
        procs, checkpoint_dir = deployment
        with Supervisor(procs) as supervisor:
            restored = Probe(_core=procs.driver, _at="alpha")
            restored.note("pre-kill")
            wait_for_checkpoint(checkpoint_dir, restored._fargo_target_id)
            os.kill(procs.processes["alpha"].pid, signal.SIGKILL)
            assert healed(supervisor, "alpha"), child_state(supervisor, "alpha")
            assert str(restored._fargo_target_id) in hosted_at(procs, "alpha")

            fresh = Probe(_core=procs.driver, _at="alpha")
            assert fresh._fargo_target_id != restored._fargo_target_id
            fresh.note("fresh")
            assert fresh.get_history() == ["fresh"]
            assert restored.get_history() == ["pre-kill"]

    def test_a_new_complet_beside_one_that_moved_away(self, deployment):
        procs, checkpoint_dir = deployment
        with Supervisor(procs) as supervisor:
            moved = Probe(_core=procs.driver, _at="alpha")
            procs.driver.move(moved, "beta")
            moved.note("at beta")
            wait_for_checkpoint(checkpoint_dir, moved._fargo_target_id)
            os.kill(procs.processes["alpha"].pid, signal.SIGKILL)
            assert healed(supervisor, "alpha"), child_state(supervisor, "alpha")
            assert hosted_at(procs, "alpha") == set()

            fresh = Probe(_core=procs.driver, _at="alpha")
            assert fresh._fargo_target_id != moved._fargo_target_id
            fresh.note("fresh")
            assert fresh.get_history() == ["fresh"]
            assert moved.get_history()[-1] == "at beta"

    def test_a_complet_that_left_just_before_the_kill_has_one_home(self, deployment):
        """The arrival is checkpointed before the move returns: the successor
        does not restore a copy of what now lives elsewhere."""
        procs, checkpoint_dir = deployment
        with Supervisor(procs) as supervisor:
            probe = Probe(_core=procs.driver, _at="alpha")
            probe.note("at alpha")
            wait_for_checkpoint(checkpoint_dir, probe._fargo_target_id)
            procs.driver.move(probe, "beta")
            os.kill(procs.processes["alpha"].pid, signal.SIGKILL)
            assert healed(supervisor, "alpha"), child_state(supervisor, "alpha")

            complet = str(probe._fargo_target_id)
            assert complet in hosted_at(procs, "beta")
            assert complet not in hosted_at(procs, "alpha")
