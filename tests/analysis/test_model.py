"""The layout model's transitions, one §3.3 rule per test, with no cluster
(the last test alone checks one against a running cluster)."""

import pytest

from repro.analysis.model import LayoutModel, Ref
from repro.cluster.cluster import Cluster
from repro.cluster.workload import (
    DataSource,
    DataSource_,
    Desktop_,
    Printer_,
    Stage_,
    Worker,
    Worker_,
)
from repro.errors import CoreError, StampResolutionError


def model(*complets):
    """A model of Cores a, b and c holding ``(id, host, class, targets)`` complets."""
    layout = LayoutModel(["a", "b", "c"])
    for cid, host, cls, targets in complets:
        layout.create(cid, host, cls, targets)
    return layout


def test_a_pull_group_moves_transitively_and_a_remote_pull_follows():
    layout = model(
        ("a/c1:Stage", "a", Stage_, ["a/c2:Stage"]),
        ("a/c2:Stage", "a", Stage_, ["b/c1:Stage"]),
        ("b/c1:Stage", "b", Stage_, []),
        ("a/c3:Stage", "a", Stage_, []),
    )
    layout.retype("a/c1:Stage", "a/c2:Stage", "pull")
    layout.retype("a/c2:Stage", "b/c1:Stage", "pull")
    assert layout.pull_group("a/c1:Stage", at="a") == ["a/c1:Stage", "a/c2:Stage"]
    assert layout.move("a/c1:Stage", "c")
    assert layout.hosted("c") == ["a/c1:Stage", "a/c2:Stage", "b/c1:Stage"]
    assert layout.hosted("a") == ["a/c3:Stage"]


def test_a_duplicate_copy_lands_at_the_destination_and_the_holder_points_at_it():
    layout = model(
        ("b/c1:DataSource", "b", DataSource_, []),
        ("a/c1:Worker", "a", Worker_, ["b/c1:DataSource"]),
    )
    layout.retype("a/c1:Worker", "b/c1:DataSource", "duplicate")
    layout.move("a/c1:Worker", "c")
    (copy,) = set(layout.hosted("c")) - {"a/c1:Worker"}
    assert layout.classes[copy] is DataSource_
    assert layout.refs["a/c1:Worker"] == [Ref(copy, "duplicate")]
    assert layout.hosted("b") == ["b/c1:DataSource"]  # the original stays
    layout.rename(copy, "a/c9:DataSource")
    assert layout.refs["a/c1:Worker"] == [Ref("a/c9:DataSource", "duplicate")]


def test_a_stamp_rebinds_to_the_first_complet_of_its_type_there():
    layout = model(
        ("a/c1:Printer", "a", Printer_, []),
        ("c/c2:Printer", "c", Printer_, []),
        ("b/c7:Printer", "c", Printer_, []),
        ("a/c2:Desktop", "a", Desktop_, ["a/c1:Printer"]),
    )
    layout.retype("a/c2:Desktop", "a/c1:Printer", "stamp")
    layout.move("a/c2:Desktop", "c")
    assert layout.refs["a/c2:Desktop"] == [Ref("b/c7:Printer", "stamp")]


def test_a_stamp_with_no_match_keeps_a_link_under_the_link_fallback():
    layout = model(
        ("a/c1:Printer", "a", Printer_, []),
        ("a/c2:Desktop", "a", Desktop_, ["a/c1:Printer"]),
    )
    layout.retype("a/c2:Desktop", "a/c1:Printer", "stamp", fallback="link")
    layout.move("a/c2:Desktop", "b")
    assert layout.refs["a/c2:Desktop"] == [Ref("a/c1:Printer", "link")]


def test_a_stamp_with_no_match_aborts_the_whole_group_under_the_error_fallback():
    layout = model(
        ("a/c1:Printer", "a", Printer_, []),
        ("a/c2:Desktop", "a", Desktop_, ["a/c1:Printer"]),
        ("a/c3:Stage", "a", Stage_, ["a/c2:Desktop"]),
    )
    layout.retype("a/c2:Desktop", "a/c1:Printer", "stamp")
    layout.retype("a/c3:Stage", "a/c2:Desktop", "pull")
    with pytest.raises(StampResolutionError):
        layout.move("a/c3:Stage", "b")
    assert layout.hosted("a") == ["a/c1:Printer", "a/c2:Desktop", "a/c3:Stage"]
    assert layout.refs["a/c2:Desktop"] == [Ref("a/c1:Printer", "stamp")]


def test_a_move_to_where_the_complet_is_changes_nothing():
    layout = model(("a/c1:Worker", "a", Worker_, []))
    assert layout.move("a/c1:Worker", "a") is False
    assert layout.hosted("a") == ["a/c1:Worker"]


def test_an_invoke_answers_the_host_or_the_typed_error_of_a_crashed_one():
    layout = model(("a/c1:Worker", "a", Worker_, []), ("b/c1:Worker", "b", Worker_, []))
    layout.crash_core("b")
    assert layout.invoke("a/c1:Worker") == "a"
    with pytest.raises(CoreError):
        layout.invoke("b/c1:Worker")
    with pytest.raises(CoreError):
        layout.move("a/c1:Worker", "b")
    assert layout.calls == {"a/c1:Worker": 1}


def test_a_restore_under_its_identity_leaves_a_stale_copy_until_the_reconcile():
    layout = model(("b/c1:Worker", "b", Worker_, []))
    layout.crash_core("b")
    assert layout.restore("b", "a", ["b/c1:Worker"]) == []
    assert layout.hosted("a") == ["b/c1:Worker"] and layout.stale == {"b": {"b/c1:Worker"}}
    assert layout.invoke("b/c1:Worker") == "a"
    layout.revive("b")
    layout.reconcile("b")
    assert layout.stale == {} and layout.hosted("b") == []


def test_a_restore_that_breaks_the_contract_says_how():
    layout = model(("b/c1:Worker", "b", Worker_, []), ("b/c2:Worker", "b", Worker_, []))
    layout.crash_core("b")
    breaches = layout.restore(
        "b", "c", ["b/c1:Worker", "b/c1:Worker"], skipped=["b/c2:Worker"], unrepaired=["a:x"]
    )
    assert breaches == [
        "tracker a:x still points into the grave",
        "b/c2:Worker skipped, but it lives nowhere else",
        "b/c1:Worker of b came back 2 times",
    ]
    assert model(("b/c1:Worker", "b", Worker_, [])).restore("b", "a", []) == [
        "b recovered at a, which is down or reaches it",
        "b/c1:Worker of b came back 0 times",
    ]


def test_a_partition_lets_a_degraded_copy_stand_beside_its_original():
    layout = model(("b/c1:Worker", "b", Worker_, []))
    layout.partition({"b"})
    assert layout.restore("b", "a", [], degraded={"b/c1:Worker": "a/c9:Worker"}) == []
    assert layout.hosted("a") == ["a/c9:Worker"] and layout.hosted("b") == ["b/c1:Worker"]
    assert layout.restore("b", "a", ["b/c1:Worker"]) == [
        "b/c1:Worker came back under its identity while b runs it"
    ]
    layout.heal()
    assert layout.sides == {}


def test_each_degraded_copy_takes_what_its_own_original_held():
    layout = model(("b/c1:Worker", "b", Worker_, ["a/c1:Source"]),
                   ("b/c2:Worker", "b", Worker_, []), ("a/c1:Source", "a", DataSource_, []))
    layout.invoke("b/c2:Worker")
    layout.crash_core("b")
    copies = {"b/c2:Worker": "a/c8:Worker", "b/c1:Worker": "a/c9:Worker"}
    assert layout.restore("b", "a", [], degraded=copies) == []
    assert [ref.target for ref in layout.refs["a/c9:Worker"]] == ["a/c1:Source"]
    assert layout.refs["a/c8:Worker"] == [] and layout.calls["a/c8:Worker"] == 1


def test_the_model_of_a_cluster_after_a_move_is_the_model_moved():
    cluster = Cluster(["a", "b", "c"])
    source = DataSource(size=64, _core=cluster["a"], _at="b")
    worker = Worker(source, _core=cluster["a"], _at="b")
    ids = cluster.complets_at("b")
    assert cluster.admin("b").retype(ids[1], ids[0], "pull")
    predicted = LayoutModel.of(cluster)
    assert predicted.move(ids[1], "c") is cluster.move(worker, "c") is True
    observed = LayoutModel.of(cluster)
    assert (observed.hosts, observed.refs) == (predicted.hosts, predicted.refs)
