"""The shapes of the series EXPERIMENTS.md quotes, over ``run_area`` output.

``--check`` holds every number within 15 % of its committed baseline;
these tests hold what a number must be whatever the baseline says: who
wins, what stays constant, what grows.  Each area runs once per module.
"""

import functools

from repro.bench.runner import run_area

area = functools.cache(run_area)

HOPS = (1, 2, 4, 8)
STALE_HOPS = (2, 4, 8)
LINKS = ("link1000k", "link250k", "link50k")


def test_c1_one_tracker_per_target_per_core():
    metrics = area("invocation")
    assert [metrics[f"refs{count}_trackers"] for count in (1, 8, 64)] == [1, 1, 1]


def test_c1_the_wire_price_grows_with_the_argument():
    metrics = area("invocation")
    seconds = [metrics[f"payload{size}_sim_seconds"] for size in (100, 10_000, 1_000_000)]
    assert seconds == sorted(set(seconds))


def test_f2_the_first_call_walks_the_chain():
    metrics = area("tracker_chains")
    first = [metrics[f"hops{hops}_first_seconds"] for hops in HOPS]
    assert first == sorted(first) and first[-1] > 3 * first[0]


def test_f2_the_second_call_is_one_round_trip_whatever_the_history():
    metrics = area("tracker_chains")
    assert {metrics[f"hops{hops}_second_messages"] for hops in HOPS} == {2}


def test_c2_shortening_frees_the_intermediate_trackers():
    metrics = area("tracker_chains")
    for hops in HOPS:
        assert metrics[f"hops{hops}_trackers_collected"] >= hops - 1


def test_c3_a_group_moves_in_one_request():
    metrics = area("movement")
    for size in (1, 4, 16):
        assert metrics[f"group{size}_requests"] == 1
        assert metrics[f"naive{size}_requests"] == size + 1


def test_c3_group_bytes_follow_the_member_size():
    metrics = area("movement")
    assert metrics["member65536_group_bytes"] > 10 * metrics["member256_group_bytes"]


def test_c4_the_cache_serves_repeated_instant_reads():
    metrics = area("monitoring")
    assert metrics["cached_reads_evaluations"] == 1
    assert metrics["uncached_reads_evaluations"] == 100


def test_c5_sampling_follows_started_profiles_and_stops_with_them():
    metrics = area("monitoring")
    for started in (0, 1, 4, 16):
        assert metrics[f"profiles{started}_evaluations"] == 10 * started
    assert metrics["stopped_profile_evaluations"] == 0
    assert metrics["stopped_pending_timers"] == 0


def test_c6_one_measurement_for_any_number_of_listeners():
    metrics = area("monitoring")
    for listeners in (1, 10, 100):
        assert metrics[f"listeners{listeners}_evaluations"] == 10
        assert metrics[f"listeners{listeners}_profiles"] == 1


def test_c7_dynamic_beats_both_static_layouts_more_as_the_link_slows():
    metrics = area("adaptive_layout")
    speedups = []
    for link in LINKS:
        best_static = min(
            metrics[f"{link}_static_site1_net_seconds"],
            metrics[f"{link}_static_site2_net_seconds"],
        )
        dynamic = metrics[f"{link}_dynamic_net_seconds"]
        assert dynamic < best_static, link
        speedups.append(best_static / dynamic)
    assert speedups[-1] >= speedups[0]


def test_c7_the_rules_react_within_seconds():
    assert 0 < area("adaptive_layout")["policy_reaction_vs"] <= 5


def test_c12_a_stale_chain_is_walked_hop_by_hop():
    metrics = area("tracking_modes")
    for hops in STALE_HOPS:
        assert metrics[f"hops{hops}_chain_stale_messages"] >= 2 * hops


def test_c12_the_registry_resolves_in_constant_messages():
    metrics = area("tracking_modes")
    (messages,) = {metrics[f"hops{hops}_registry_stale_messages"] for hops in STALE_HOPS}
    assert messages < metrics["hops4_chain_stale_messages"]


def test_c12_the_registry_pays_one_message_per_move():
    metrics = area("tracking_modes")
    assert metrics["registry_move_messages"] == metrics["chain_move_messages"] + 1


def test_c12_only_the_registry_survives_a_dead_core_on_the_path():
    metrics = area("tracking_modes")
    assert metrics["chain_breaks_on_path_death"] == 1
    assert metrics["registry_breaks_on_path_death"] == 0


def test_pipeline_placement_decides_the_item_latency():
    metrics = area("pipeline")
    assert (
        metrics["colocated_item_seconds"]
        < metrics["head_remote_item_seconds"]
        < metrics["spread_item_seconds"]
    )


def test_pipeline_one_pulled_move_recolocates_every_stage():
    metrics = area("pipeline")
    assert metrics["pulled_stages_left_behind"] == 0
    assert metrics["pulled_item_seconds"] < metrics["spread_item_seconds"] / 5


def test_taskfarm_adaptive_placement_wins_on_the_slow_link():
    metrics = area("taskfarm")
    assert metrics["link30k_adaptive_net_seconds"] < metrics["link30k_static_net_seconds"]


def test_taskfarm_more_workers_finish_sooner():
    metrics = area("taskfarm")
    assert metrics["workers4_makespan_vs"] < metrics["workers1_makespan_vs"]


def test_marshal_wire_bytes_track_the_closure():
    metrics = area("marshal")
    for blob in (1_000, 10_000, 100_000):
        closure = metrics[f"blob{blob}_closure_bytes"]
        assert blob < closure
        assert metrics[f"blob{blob}_wire_bytes"] < closure * 1.2 + 2_000


def test_runtime_ops_snapshot_bytes_grow_with_the_blob():
    metrics = area("runtime_ops")
    assert metrics["blob100000_snapshot_bytes"] > 50 * metrics["blob1000_snapshot_bytes"]


def test_recovery_verdicts_come_within_fail_after_plus_one_interval():
    metrics = area("recovery")
    bounds = {
        "detection_latency_vs": 1.5 + 0.5,
        "interval200_fail600_detection_vs": 0.6 + 0.2,
        "interval500_fail3000_detection_vs": 3.0 + 0.5,
        "interval1000_fail5000_detection_vs": 5.0 + 1.0,
    }
    for name, bound in bounds.items():
        assert 0 <= metrics[name] <= bound + 1e-9, name


def test_transport_frame_overhead_is_a_small_constant():
    metrics = area("transport")
    (overhead,) = {
        metrics[f"payload{size}_frame_overhead_bytes"] for size in (0, 64, 512, 8_192)
    }
    assert overhead < 64


def test_tracing_off_records_no_span():
    metrics = area("tracing")
    assert metrics["tracing_off_spans"] == 0 < metrics["tracing_on_spans"]


def test_store_offloads_moves_and_calls_and_caches_duplicates():
    metrics = area("store")
    assert metrics["store_move_net_bytes"] < metrics["eager_move_net_bytes"] / 5
    assert metrics["bulk_invoke_net_bytes"] < 8 * 2 * 131_072 / 5
    assert metrics["pingpong_cache_hits"] >= 3


def test_analysis_finds_nothing_in_clean_scripts_sources_and_plans():
    metrics = area("analysis")
    assert metrics["diagnostics_total"] == 0
    assert metrics["plan_diagnostics_total"] == 0
