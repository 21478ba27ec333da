"""Unit tests for supervision policy plumbing (no real processes).

The end-to-end kill/restart/escalate paths live in
``tests/integration/test_supervised.py`` (tcp marker) and the chaos
``--real`` mode; here we pin down the pure parts: restart policies,
exit-cause decoding, backoff schedules, state reporting, and handing a
directory-backed checkpoint store to ``enable_recovery``.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, CoreProcesses, RestartPolicy, Supervisor
from repro.cluster.forkserver import UNREPORTED_EXIT
from repro.cluster.supervisor import DEFAULT_BACKOFF, _ChildState, describe_exit
from repro.cluster.workload import Counter
from repro.errors import ConfigurationError
from repro.recovery import CheckpointStore


class TestRestartPolicy:
    def test_defaults(self):
        policy = RestartPolicy()
        assert policy.max_restarts == 3
        assert policy.window == 60.0
        assert policy.backoff is DEFAULT_BACKOFF
        assert not hasattr(policy, "recover")  # every respawn restores when a directory is shared

    def test_zero_budget_is_legal(self):
        # max_restarts=0 means "never restart, give the child up at once".
        assert RestartPolicy(max_restarts=0).max_restarts == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            RestartPolicy(max_restarts=-1)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ConfigurationError):
            RestartPolicy(window=0.0)

    def test_backoff_schedule_is_exponential_and_capped(self):
        delays = [DEFAULT_BACKOFF.backoff(n) for n in range(1, 7)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert max(delays) <= 2.0


class TestDescribeExit:
    def test_signals_named(self):
        assert describe_exit(-9) == "signal SIGKILL"
        assert describe_exit(-15) == "signal SIGTERM"

    def test_unknown_signal_number_falls_back(self):
        assert describe_exit(-250) == "signal 250"

    def test_exit_codes(self):
        assert describe_exit(0) == "exit 0"
        assert describe_exit(3) == "exit 3"

    def test_an_exit_its_template_did_not_live_to_report(self):
        assert describe_exit(UNREPORTED_EXIT) == "exit unreported (its template died first)"


class TestChildState:
    def test_to_dict_surface(self):
        state = _ChildState()
        as_dict = state.to_dict()
        assert as_dict["status"] == "running"
        assert as_dict["restarts"] == 0
        assert as_dict["last_exit"] is None
        assert "escalated_to" not in as_dict  # the RecoveryManager restores a given-up child
        for key in ("streak", "last_verdict", "last_mttr", "next_backoff"):
            assert key in as_dict


class TestSupervisorConstruction:
    def test_requires_started_processes(self):
        procs = CoreProcesses(["alpha"])  # not started
        with pytest.raises(ConfigurationError):
            Supervisor(procs)

    def test_one_policy_for_every_child(self):
        with pytest.raises(TypeError):
            Supervisor(CoreProcesses(["alpha"]), policies={})  # type: ignore[call-arg]


class TestRecoveryStoreWiring:
    def test_directory_store_through_enable_recovery(self, tmp_path):
        target = tmp_path / "checkpoints"
        store = CheckpointStore(target)
        cluster = Cluster(["a"])
        try:
            manager = cluster.enable_recovery(store=store)
            assert manager.store is store
            complet_id = Counter(3, _core=cluster["a"])._fargo_target_id
            cluster.checkpoints["a"].sweep()
        finally:
            cluster.close()
        # close() leaves a caller's directory alone, and a fresh handle
        # (the shape a respawned process uses) reads what was written.
        assert [r.complet_id for r in CheckpointStore(target).hosted_at("a")] == [complet_id]
