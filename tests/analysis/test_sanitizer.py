"""Tests for the dynamic LayoutSanitizer (``Cluster(sanitize=True)``)."""

from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter
from repro.script.interpreter import ScriptEngine


def raced_cluster():
    """The acceptance scenario: two scripts racing one complet's move.

    The trigger complets live on *different* Cores ("f" and "g") so the
    two rule firings are causally independent — hosting both triggers on
    one Core would thread the first move's commit stamp into the second
    firing's clock and (correctly) serialize them.
    """
    cluster = Cluster(["a", "b", "c", "d", "e", "f", "g"], sanitize=True)
    Counter(0, _core=cluster["c"], _at="c")
    (target_id,) = cluster.complets_at("c")
    e1 = ScriptEngine(cluster, home="a")
    e2 = ScriptEngine(cluster, home="b")
    e1.run(f'on completArrived listenAt [a] do move "{target_id}" to "d" end')
    e2.run(f'on completArrived listenAt [b] do move "{target_id}" to "e" end')
    trigger1 = Counter(0, _core=cluster["f"], _at="f")
    trigger2 = Counter(0, _core=cluster["g"], _at="g")
    cluster.move(trigger1, "a")
    cluster.move(trigger2, "b")
    return cluster, target_id


class TestRaceDetection:
    def test_deliberately_raced_two_script_move_is_detected(self):
        cluster, target_id = raced_cluster()
        races = cluster.sanitizer.races
        assert len(races) == 1
        race = races[0]
        assert race.subject == target_id
        assert {race.first_kind, race.second_kind} == {"move"}
        assert {race.first_detail, race.second_detail} == {"d", "e"}
        assert "rule(on completArrived)@a" in (race.first_label, race.second_label)

    def test_race_surfaces_as_fg410_in_analyze(self):
        cluster, target_id = raced_cluster()
        fg410 = [d for d in cluster.analyze() if d.code == "FG410"]
        assert len(fg410) == 1
        assert target_id in fg410[0].message

    def test_race_was_also_statically_warned(self):
        # The dynamic finding has a static counterpart on the same set.
        cluster, _ = raced_cluster()
        assert any(d.code == "FG401" for d in cluster.analyze())

    def test_race_increments_the_metric(self):
        cluster, _ = raced_cluster()
        total = sum(
            core.metrics.counter_value("sanitizer.races")
            for core in cluster.cores.values()
        )
        assert total == 1

    def test_race_emits_a_span_when_tracing(self):
        cluster = Cluster(
            ["a", "b", "c", "d", "e", "f", "g"], tracing=True, sanitize=True
        )
        Counter(0, _core=cluster["c"], _at="c")
        (target_id,) = cluster.complets_at("c")
        e1 = ScriptEngine(cluster, home="a")
        e2 = ScriptEngine(cluster, home="b")
        e1.run(f'on completArrived listenAt [a] do move "{target_id}" to "d" end')
        e2.run(f'on completArrived listenAt [b] do move "{target_id}" to "e" end')
        cluster.move(Counter(0, _core=cluster["f"], _at="f"), "a")
        cluster.move(Counter(0, _core=cluster["g"], _at="g"), "b")
        assert len(cluster.sanitizer.races) == 1
        spans = [
            span
            for trace in cluster.traces().values()
            for span in trace.spans
            if span.name == "sanitizer:race"
        ]
        assert len(spans) == 1


class TestNoFalsePositives:
    def test_sequential_moves_do_not_race(self):
        cluster = Cluster(["a", "b", "c"], sanitize=True)
        counter = Counter(0, _core=cluster["a"], _at="a")
        cluster.move(counter, "b")
        cluster.move(counter, "c")
        cluster.move(counter, "a")
        assert cluster.sanitizer.races == []

    def test_causally_chained_rule_moves_do_not_race(self):
        # One trigger Core: the second firing sees the first move's
        # commit in its origin clock, so the moves are ordered.
        cluster = Cluster(["a", "b", "c", "d", "e"], sanitize=True)
        Counter(0, _core=cluster["c"], _at="c")
        (target_id,) = cluster.complets_at("c")
        engine = ScriptEngine(cluster, home="a")
        engine.run(f'on completArrived listenAt [a] do move "{target_id}" to "d" end')
        trigger = Counter(0, _core=cluster["b"], _at="b")
        cluster.move(trigger, "a")
        cluster.move(Counter(0, _core=cluster["a"], _at="a"), "b")
        assert cluster.sanitizer.races == []

    def test_sanitize_off_records_nothing(self):
        cluster = Cluster(["a", "b"])
        assert cluster.sanitizer is None
        counter = Counter(0, _core=cluster["a"], _at="a")
        cluster.move(counter, "b")

    def test_sequential_recoveries_do_not_race(self):
        # Two crash/recover episodes restore the same complet at
        # different Cores; the recovery actor's clock chains them, so
        # the two restores are ordered, not racing.
        from repro.cluster.failures import FailureInjector

        cluster = Cluster(["a", "b", "c", "d"], sanitize=True)
        cluster.enable_recovery()
        injector = FailureInjector(cluster)
        counter = Counter(0, _core=cluster["a"], _at="a")
        injector.crash_core_at(2.0, "a")
        cluster.advance(12.0)
        assert len(cluster.recovery.reports) == 1
        first_home = cluster.recovery.reports[0].destination
        assert first_home != "a"  # the first recovery re-placed it
        injector.crash_core_at(cluster.now + 1.0, first_home)
        cluster.advance(12.0)
        assert len(cluster.recovery.reports) == 2
        second_home = cluster.recovery.reports[1].destination
        assert second_home not in ("a", first_home)
        assert cluster.sanitizer.races == []


class TestRetypeAndRestoreRaces:
    def test_concurrent_retype_race_is_detected(self):
        cluster = Cluster(["a", "b", "c", "f", "g"], sanitize=True)
        server = Counter(0, _core=cluster["c"], _at="c")
        e1 = ScriptEngine(cluster, home="a")
        e2 = ScriptEngine(cluster, home="b")
        e1.run("$r = %1\non completArrived listenAt [a] do retype $r to pull end", (server,))
        e2.run(
            "$r = %1\non completArrived listenAt [b] do retype $r to duplicate end", (server,)
        )
        cluster.move(Counter(0, _core=cluster["f"], _at="f"), "a")
        cluster.move(Counter(0, _core=cluster["g"], _at="g"), "b")
        retype_races = [
            race
            for race in cluster.sanitizer.races
            if {race.first_kind, race.second_kind} == {"retype"}
        ]
        assert len(retype_races) == 1
        assert {retype_races[0].first_detail, retype_races[0].second_detail} == {
            "pull", "duplicate",
        }
