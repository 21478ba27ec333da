"""Tests for the script checker: one positive and one negative case per rule."""

from repro.analysis import TopologyInfo, check_script


def codes(source, **kwargs):
    return [d.code for d in check_script(source, **kwargs)]


TOPO = TopologyInfo(
    cores=frozenset({"c1", "c2", "safe"}),
    complets=frozenset({"srv", "cli"}),
)


class TestFG100Parse:
    def test_syntax_error_becomes_diagnostic(self):
        diagnostics = check_script("on shutdown do\n move", file="x.fgs")
        assert [d.code for d in diagnostics] == ["FG100"]
        assert diagnostics[0].file == "x.fgs"
        assert diagnostics[0].line >= 1

    def test_valid_script_is_clean(self):
        assert codes('on shutdown firedby $c do\n log "bye"\nend') == []


class TestFG101Undefined:
    def test_undefined_variable(self):
        out = check_script("on timer(5) do\n move $ghost to c1\nend")
        assert [d.code for d in out] == ["FG101"]
        assert "$ghost" in out[0].message

    def test_suggestion_for_near_miss(self):
        out = check_script('$server = "x"\non timer(5) do\n log $servr\nend')
        assert "did you mean 'server'" in out[0].message

    def test_assignment_and_firedby_define(self):
        src = "$dest = %1\non shutdown firedby $core do\n move completsIn $core to $dest\nend"
        assert codes(src) == []

    def test_set_action_defines_for_later_actions(self):
        src = 'on timer(5) do\n $d = "c1"\n move $x to $d\nend'
        assert codes(src) == ["FG101"]  # only $x; $d is defined by the assignment


class TestFG102Args:
    def test_zero_index_can_never_bind(self):
        assert codes("$a = %0") == ["FG102"]

    def test_index_beyond_declared_count(self):
        assert codes("$a = %3", expected_args=2) == ["FG102"]

    def test_gap_in_argument_positions_warns(self):
        out = check_script("$a = %1\n$b = %3")
        assert [d.code for d in out] == ["FG102"]
        assert "%2" in out[0].message

    def test_contiguous_args_are_fine(self):
        assert codes("$a = %1\n$b = %2", expected_args=2) == []


class TestFG103Events:
    def test_unknown_event(self):
        out = check_script('on completArived do\n log "x"\nend')
        assert [d.code for d in out] == ["FG103"]
        assert "completArrived" in out[0].message  # suggestion

    def test_core_events_and_services_resolve(self):
        src = (
            'on shutdown firedby $c do\n log "a"\nend\n'
            'on methodInvokeRate(3) from "srv" to "cli" do\n log "b"\nend'
        )
        assert codes(src, topology=TOPO) == []


class TestFG104Cores:
    def test_unknown_core_in_move_destination(self):
        out = check_script('on timer(5) do\n move "srv" to "c9"\nend', topology=TOPO)
        assert [d.code for d in out] == ["FG104"]

    def test_unknown_core_in_listen_at(self):
        src = 'on shutdown firedby $c listenAt ["c1", "nope"] do\n log "x"\nend'
        assert codes(src, topology=TOPO) == ["FG104"]

    def test_no_topology_disables_the_check(self):
        assert codes('on timer(5) do\n move "srv" to "c9"\nend') == []


class TestFG105Complets:
    def test_unknown_complet_warns(self):
        out = check_script(
            'on timer(5) do\n move "ghost" to "c1"\nend', topology=TOPO
        )
        assert [d.code for d in out] == ["FG105"]
        assert out[0].severity.value == "warning"

    def test_known_complet_is_clean(self):
        assert codes('on timer(5) do\n move "srv" to "c1"\nend', topology=TOPO) == []


class TestFG106Types:
    def test_string_threshold(self):
        assert codes('on methodInvokeRate("hot") from "a" to "b" do\n log "x"\nend') \
            == ["FG106"]

    def test_non_positive_timer_interval(self):
        assert codes('on timer(0) do\n log "x"\nend') == ["FG106"]

    def test_unknown_comparison_operator(self):
        out = check_script('on cpuLoad(0.5, "~~") do\n log "x"\nend')
        assert [d.code for d in out] == ["FG106"]

    def test_number_destination_in_move(self):
        assert codes('on timer(5) do\n move "srv" to 7\nend') == ["FG106"]


class TestFG107Duplicates:
    def test_identical_rules_warn(self):
        rule = 'on shutdown firedby $c do\n move completsIn $c to "safe"\nend\n'
        out = check_script(rule + rule)
        assert [d.code for d in out] == ["FG107"]
        assert out[0].severity.value == "warning"

    def test_conflicting_destinations_error(self):
        src = (
            'on shutdown firedby $c do\n move "srv" to "c1"\nend\n'
            'on shutdown firedby $c do\n move "srv" to "c2"\nend'
        )
        out = check_script(src)
        assert [d.code for d in out] == ["FG107"]
        assert out[0].severity.value == "error"

    def test_different_rules_are_fine(self):
        src = (
            'on shutdown firedby $c do\n move "srv" to "c1"\nend\n'
            'on timer(9) do\n move "cli" to "c2"\nend'
        )
        assert codes(src) == []


class TestFG108MoveCycles:
    def test_two_core_ping_pong(self):
        src = (
            'on completArrived listenAt "c1" do\n move stray to "c2"\nend\n'
            'on completArrived listenAt "c2" do\n move stray to "c1"\nend'
        )
        out = check_script(src)
        assert [d.code for d in out] == ["FG108"]
        assert "c1" in out[0].message and "c2" in out[0].message

    def test_one_way_cascade_is_fine(self):
        src = (
            'on completArrived listenAt "c1" do\n move stray to "c2"\nend\n'
            'on completArrived listenAt "c2" do\n move stray to "c3"\nend'
        )
        assert codes(src) == []

    def test_unlistened_rule_spans_whole_universe(self):
        # No listenAt: the rule fires on arrivals anywhere, including the
        # destination Core itself — moving onward from there re-triggers it.
        src = (
            'on completArrived do\n move stray to "c1"\nend\n'
            'on completArrived listenAt "c1" do\n move stray to "c2"\nend'
        )
        assert "FG108" in codes(src)


class TestFG109Clauses:
    def test_timer_without_interval(self):
        assert codes('on timer() do\n log "x"\nend') == ["FG109"]

    def test_pair_service_needs_from_and_to(self):
        assert codes('on methodInvokeRate(3) do\n log "x"\nend') == ["FG109"]

    def test_peer_service_needs_to(self):
        assert codes('on latency(0.2) do\n log "x"\nend') == ["FG109"]

    def test_complet_service_needs_from(self):
        assert codes('on completSize(10000) do\n log "x"\nend') == ["FG109"]

    def test_complete_clauses_are_fine(self):
        assert codes('on latency(0.2) to "c2" do\n log "x"\nend', topology=TOPO) == []


class TestFG110Retype:
    def test_unknown_reference_type(self):
        out = check_script('on timer(5) do\n retype "srv" to pulll\nend')
        assert [d.code for d in out] == ["FG110"]
        assert "pull" in out[0].message  # suggestion

    def test_builtin_types_resolve(self):
        for name in ("link", "pull", "duplicate", "stamp"):
            assert codes(f'on timer(5) do\n retype "srv" to {name}\nend') == []


class TestFG111Calls:
    def test_unknown_action(self):
        out = check_script('on timer(5) do\n call colocte("a", "b")\nend')
        assert [d.code for d in out] == ["FG111"]
        assert "colocate" in out[0].message  # suggestion

    def test_retry_move_outside_move_failed(self):
        assert codes('on timer(5) do\n call retryMove(2)\nend') == ["FG111"]

    def test_retry_move_inside_move_failed(self):
        assert codes("on moveFailed do\n call retryMove(2)\nend") == []

    def test_module_colon_function_names_pass(self):
        assert codes('on timer(5) do\n call my.mod:act("x")\nend') == []


class TestTopologyInfo:
    def test_from_cluster_includes_short_ids(self):
        from repro import Cluster
        from repro.cluster.workload import Echo

        cluster = Cluster(["a", "b"])
        Echo("e", _core=cluster["a"], _at="a")
        topo = TopologyInfo.from_cluster(cluster)
        assert topo.cores == frozenset({"a", "b"})
        full_ids = cluster.complets_at("a")
        assert set(full_ids) <= topo.complets
        assert len(topo.complets) > len(full_ids)  # short forms included

    def test_from_cluster_reads_the_ids_each_core_hosts(self):
        from repro import Cluster
        from repro.cluster.workload import Counter, Echo

        cluster = Cluster(["a", "b"])
        Echo("e", _core=cluster["a"], _at="a")
        Counter(0, _core=cluster["a"], _at="b")
        hosted = [cid for core in cluster.running_cores() for cid in core.repository.complet_ids()]
        assert TopologyInfo.from_cluster(cluster).complets == {
            form for cid in hosted for form in (str(cid), cid.short())
        }


class TestSpansInDiagnostics:
    def test_diagnostic_points_at_the_offending_token(self):
        out = check_script('$x = "ok"\non timer(5) do\n move $ghost to "c1"\nend')
        (d,) = out
        assert d.line == 3
        assert d.column > 1


class TestRecoveryEvents:
    def test_liveness_events_resolve(self):
        src = (
            'on coreSuspected firedby $c do\n log "s"\nend\n'
            'on coreFailed firedby $c do\n log "f"\nend\n'
            'on coreRecovered firedby $c do\n log "r"\nend\n'
            'on coreReconciled firedby $c do\n log "c"\nend\n'
            'on completRecovered firedby $x do\n log "x"\nend\n'
            'on completRestored firedby $x do\n log "y"\nend'
        )
        assert codes(src) == []

    def test_misspelled_liveness_event_suggests(self):
        out = check_script('on coreFaild firedby $c do\n log "x"\nend')
        assert [d.code for d in out] == ["FG103"]
        assert "coreFailed" in out[0].message


class TestFG111Failover:
    def test_argless_failover_outside_core_failed(self):
        out = check_script('on shutdown firedby $c do\n call failover()\nend')
        assert [d.code for d in out] == ["FG111"]
        assert "coreFailed" in out[0].message

    def test_argless_failover_inside_core_failed(self):
        src = "on coreFailed firedby $c do\n call failover()\nend"
        assert codes(src) == []

    def test_failover_with_core_argument_anywhere(self):
        src = 'on timer(10) do\n call failover("c1")\nend'
        assert codes(src) == []

    def test_restore_action_is_known(self):
        src = 'on timer(10) do\n call restore("srv", "c1")\nend'
        assert codes(src, topology=TOPO) == []
