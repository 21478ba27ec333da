"""Tests for the location registry (the paper's future-work naming scheme)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter
from repro.core.locator import LocationRegistry
from repro.errors import CoreDownError
from repro.net.messages import MessageKind
from tests.pointers import kinds, pointer_set_violations


@pytest.fixture
def registry_cluster():
    return Cluster(["a", "b", "c", "d"], locator=LocationRegistry)


class TestRegistryMaintenance:
    def test_home_learns_every_move(self, registry_cluster):
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        cluster.move_via_host(counter, "b")
        cluster.move_via_host(counter, "c")
        location = cluster["a"].locator.resolve(counter._fargo_target_id)
        assert location is not None
        assert location.core == "c"

    def test_local_birth_core_records_directly(self, registry_cluster):
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        cluster.move(counter, "b")
        cluster["b"].move(counter._fargo_target_id, "a")  # back home
        location = cluster["a"].locator.resolve(counter._fargo_target_id)
        assert location.core == "a"

    def test_no_record_before_first_move(self, registry_cluster):
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        assert cluster["a"].locator.resolve(counter._fargo_target_id) is None

    def test_query_from_third_core(self, registry_cluster):
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        cluster.move(counter, "c")
        location = cluster["d"].locator.resolve(counter._fargo_target_id)
        assert location.core == "c"

    def test_update_is_one_message_per_move(self, registry_cluster):
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        cluster.move(counter, "b")
        before = cluster.stats.by_kind[MessageKind.LOCATION_UPDATE]
        cluster.move_via_host(counter, "c")
        assert cluster.stats.by_kind[MessageKind.LOCATION_UPDATE] - before == 1

    def test_disabled_by_default(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        cluster.move(counter, "beta")
        assert cluster["alpha"].locator.resolve(counter._fargo_target_id) is None

    def test_update_survives_home_outage(self, registry_cluster):
        """A missed update degrades to chain walking, never to an error."""
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        cluster.move(counter, "b")
        cluster.transport.set_node_down("a")  # home offline
        cluster["b"].move(counter._fargo_target_id, "c")  # update dropped
        cluster.transport.set_node_down("a", down=False)
        assert counter.increment() == 1  # chain still resolves


class TestRegistryResolution:
    def test_locate_is_single_query_after_many_hops(self, registry_cluster):
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        for destination in ("b", "c", "d", "b", "c"):
            cluster.move_via_host(counter, destination)
        cluster.reset_stats()
        # The stub lives at the complet's home Core: no query, and one LOOKUP
        # round trip to the record, which registers the stub's tracker there;
        # the skipped first hop b is told by a post.
        assert cluster.locate(counter) == "c"
        assert kinds(cluster) == {"TRACKER_LOOKUP": 2, "TRACKER_UPDATE": 1}
        # From any other Core: one LOCATION_QUERY round trip more.
        foreign = cluster.stub_at("d", counter)
        cluster.reset_stats()
        assert cluster["d"].references.locate(foreign._fargo_tracker) == "c"
        assert kinds(cluster) == {
            "LOCATION_QUERY": 2, "TRACKER_LOOKUP": 2, "TRACKER_UPDATE": 1
        }

    def test_invocation_survives_dead_intermediate_core(self, registry_cluster):
        """The headline benefit over chains: a dead Core on the migration
        path no longer breaks the reference."""
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        cluster.move_via_host(counter, "b")
        cluster.move_via_host(counter, "c")
        cluster.transport.set_node_down("b")  # the chain a->b->c is cut
        assert counter.increment() == 1  # recovered via the registry

    def test_chain_mode_fails_same_scenario(self):
        chain_cluster = Cluster(["a", "b", "c"])  # registry disabled
        counter = Counter(0, _core=chain_cluster["a"])
        chain_cluster.move_via_host(counter, "b")
        chain_cluster.move_via_host(counter, "c")
        chain_cluster.transport.set_node_down("b")
        with pytest.raises(CoreDownError):
            counter.increment()

    def test_no_recovery_when_home_also_dead(self, registry_cluster):
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        cluster.move_via_host(counter, "b")
        cluster.move_via_host(counter, "c")
        cluster.transport.set_node_down("b")
        cluster.transport.set_node_down("a")  # home gone too
        with pytest.raises(CoreDownError):
            counter.increment()

    def test_a_stale_record_starts_the_walk(self, registry_cluster):
        """A dropped update leaves the home naming a Core the complet has
        left: the walk starts there and that Core's tracker sends it on."""
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        foreign = cluster.stub_at("d", counter)
        cluster.move(counter, "b")
        cluster.transport.set_node_down("a")
        cluster["b"].move(counter._fargo_target_id, "c")  # the update to a is lost
        cluster.transport.set_node_down("a", down=False)
        assert cluster["a"].locator.resolve(counter._fargo_target_id).core == "b"
        assert cluster.locate(counter) == "c"
        assert cluster["d"].references.locate(foreign._fargo_tracker) == "c"
        entry = cluster["d"].movement.fetch_remote_clone(foreign)
        assert entry.anchor_ref == foreign._fargo_tracker.anchor_ref
        assert not pointer_set_violations(cluster.cores.values())

    def test_registry_shortens_tracker(self, registry_cluster):
        cluster = registry_cluster
        counter = Counter(0, _core=cluster["a"])
        cluster.move_via_host(counter, "b")
        cluster.move_via_host(counter, "c")
        assert cluster.locate(counter) == "c"
        assert counter._fargo_tracker.next_hop.core == "c"


class TestRegistryWithGroups:
    def test_whole_group_registered(self, registry_cluster):
        from repro.complet.relocators import Pull
        from repro.core.core import Core
        from repro.cluster.workload import DataSource, Worker

        cluster = registry_cluster
        source = DataSource(100, _core=cluster["a"])
        worker = Worker(source, _core=cluster["a"])
        anchor = cluster["a"].repository.get(worker._fargo_target_id)
        Core.get_meta_ref(anchor.source).set_relocator(Pull())
        cluster.move(worker, "c")
        for stub in (worker, source):
            location = cluster["a"].locator.resolve(stub._fargo_target_id)
            assert location.core == "c"
