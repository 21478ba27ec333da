"""Tests for the Complet Repository."""

import pytest

from repro.core.repository import Repository
from repro.errors import CompletError, SerialsExhaustedError
from repro.cluster.workload import Counter, Counter_, Echo, Echo_, Printer_
from repro.util.ids import LIFE_SPAN


class TestCompletLifecycle:
    def test_install_new_assigns_identity(self, cluster):
        repo = cluster["alpha"].repository
        tracker = repo.install_new(Echo_, ("t",), {})
        assert tracker.is_local
        anchor = tracker.local_anchor
        assert anchor.complet_id.birth_core == "alpha"
        assert repo.hosts(anchor.complet_id)

    def test_serials_increase(self, cluster):
        repo = cluster["alpha"].repository
        t1 = repo.install_new(Echo_, ("a",), {})
        t2 = repo.install_new(Echo_, ("b",), {})
        assert t2.target_id.serial > t1.target_id.serial

    def test_double_install_rejected(self, cluster):
        repo = cluster["alpha"].repository
        tracker = repo.install_new(Echo_, ("t",), {})
        with pytest.raises(CompletError):
            repo.adopt(tracker.local_anchor)

    def test_adopt_preserves_identity(self, cluster):
        alpha, beta = cluster["alpha"].repository, cluster["beta"].repository
        tracker = alpha.install_new(Echo_, ("t",), {})
        anchor = alpha.release(tracker.target_id)
        beta_tracker = beta.adopt(anchor)
        assert beta_tracker.target_id == tracker.target_id
        assert beta_tracker.target_id.birth_core == "alpha"

    def test_release_keeps_tracker(self, cluster):
        repo = cluster["alpha"].repository
        tracker = repo.install_new(Echo_, ("t",), {})
        repo.release(tracker.target_id)
        assert repo.existing_tracker(tracker.target_id) is tracker
        assert not repo.hosts(tracker.target_id)

    def test_release_unknown_rejected(self, cluster):
        from repro.util.ids import CompletId

        with pytest.raises(CompletError):
            cluster["alpha"].repository.release(CompletId("x", 99))

    def test_destroy_dangles_tracker(self, cluster):
        repo = cluster["alpha"].repository
        tracker = repo.install_new(Echo_, ("t",), {})
        repo.destroy(tracker.target_id)
        assert tracker.is_dangling

    def test_len_counts_hosted(self, cluster):
        repo = cluster["alpha"].repository
        assert len(repo) == 0
        repo.install_new(Echo_, ("a",), {})
        repo.install_new(Counter_, (), {})
        assert len(repo) == 2


class TestLookups:
    def test_find_by_type(self, cluster):
        repo = cluster["alpha"].repository
        repo.install_new(Echo_, ("a",), {})
        repo.install_new(Printer_, ("site",), {})
        assert len(repo.find_by_type(Echo_)) == 1
        assert len(repo.find_by_type(Printer_)) == 1
        assert len(repo.find_by_type(Counter_)) == 0

    def test_find_by_type_ordered_by_serial(self, cluster):
        repo = cluster["alpha"].repository
        first = repo.install_new(Echo_, ("1",), {})
        repo.install_new(Echo_, ("2",), {})
        found = repo.find_by_type(Echo_)
        assert found[0].complet_id == first.target_id

    def test_find_by_str(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        repo = cluster["alpha"].repository
        cid = echo._fargo_target_id
        assert repo.find_by_str(str(cid)) is not None
        assert repo.find_by_str(cid.short()) is not None
        assert repo.find_by_str("nonsense") is None


class TestTrackerTable:
    def test_one_tracker_per_target(self, cluster):
        """§3.1: a single tracker per target complet per Core."""
        repo = cluster["alpha"].repository
        tracker = repo.install_new(Echo_, ("t",), {})
        again = repo.tracker_for(tracker.target_id, tracker.anchor_ref)
        assert again is tracker
        assert repo.tracker_count() == 1

    def test_tracker_by_serial(self, cluster):
        repo = cluster["alpha"].repository
        tracker = repo.install_new(Echo_, ("t",), {})
        assert repo.tracker_by_serial(tracker.tracker_id.serial) is tracker
        assert repo.tracker_by_serial(999) is None

    def test_collect_skips_referenced(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])  # live stub holds tracker
        assert cluster["alpha"].repository.collect_trackers() == 0

    def test_collect_counts_cumulative(self, cluster3):
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move_via_host(counter, "beta")
        cluster3.move_via_host(counter, "gamma")
        counter.increment()
        repo = cluster3["beta"].repository
        removed = repo.collect_trackers()
        assert repo.collected_trackers == removed


class TestLives:
    """A respawned child Core is a new life of its name: it mints afresh."""

    @staticmethod
    def minted(repo: Repository) -> tuple[list[int], list[int]]:
        trackers = [repo.install_new(Echo_, (str(n),), {}) for n in range(3)]
        return (
            [tracker.target_id.serial for tracker in trackers],
            [tracker.tracker_id.serial for tracker in trackers],
        )

    def test_two_lives_of_one_name_mint_disjoint_serials(self, cluster):
        first = Repository(cluster["alpha"])
        second = Repository(cluster["alpha"])
        second.begin_life(1)
        complets, trackers = self.minted(first)
        assert complets == trackers == [1, 2, 3]
        complets, trackers = self.minted(second)
        assert complets == trackers == [LIFE_SPAN + 1, LIFE_SPAN + 2, LIFE_SPAN + 3]

    def test_a_life_past_the_last_refuses_to_mint(self, cluster):
        repo = cluster["alpha"].repository
        repo.begin_life((1 << 32) // LIFE_SPAN)
        with pytest.raises(SerialsExhaustedError):
            repo.install_new(Echo_, ("t",), {})
        assert len(repo) == 0
