import copy

import pytest

import benchfile


@pytest.fixture(scope="module")
def spec():
    return benchfile.load()


def test_the_repositorys_benchmark_json_is_valid(spec):
    assert benchfile.problems(spec) == []
    assert spec["paths"] == ["benchmarks/realpath"]
    assert spec["command"][-1] == "benchmarks/realpath/run.py"


def test_it_declares_the_four_workloads_and_stays_inside_the_limits(spec):
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    assert all(metric["bound"] <= 0.25 for metric in spec["end_to_end"])


def test_every_layer_has_its_self_time_and_call_count_declared(spec):
    import sut

    per_layer = benchfile.declared(spec, "per_layer")
    for layer in sut.LAYERS:
        assert per_layer[f"{layer}.self_us"]["unit"] == "us"
        assert per_layer[f"{layer}.calls"]["unit"] == "1/op"


@pytest.mark.parametrize(
    "change, complaint",
    [
        (lambda s: s.update(seed=1), "keys are"),
        (lambda s: s["workloads"].pop(), "3 workloads"),
        (lambda s: s["workloads"][0].update(name="bad name"), "does not match"),
        (lambda s: s["workloads"][0].update(why="two\nlines"), "one line"),
        (lambda s: s["end_to_end"][0].update(bound=0.3), "bound of"),
        (lambda s: s["end_to_end"][0].pop("bound"), "must have exactly"),
        (lambda s: s["end_to_end"][0].update(unit="micro seconds"), "unit"),
        (lambda s: s["per_layer"][0].update(better="faster"), "better of"),
        (lambda s: s["per_layer"].append(dict(s["per_layer"][0])), "more than once"),
        (lambda s: s["per_layer"].extend(
            {"name": f"filler.{i}", "unit": "us", "better": "lower"} for i in range(128)),
         "per_layer metrics"),
        (lambda s: s.update(end_to_end=[m for m in s["end_to_end"] if m["name"] != "setup_s"]),
         "lacks setup_s"),
        (lambda s: s.update(run_seconds=61), "run_seconds"),
    ],
)
def test_the_validator_names_what_is_wrong(spec, change, complaint):
    broken = copy.deepcopy(spec)
    change(broken)
    assert any(complaint in problem for problem in benchfile.problems(broken))


def test_every_printed_metric_must_be_declared_with_its_unit(spec):
    printed = {
        name: {"value": 1.0, "unit": metric["unit"]}
        for name, metric in benchfile.declared(spec, "end_to_end").items()
    }
    assert benchfile.undeclared(spec, "end_to_end", printed) == []
    printed["op_p99_us"] = {"value": 1.0, "unit": "us"}
    printed["setup_s"]["unit"] = "ms"
    del printed["rss_mb"]
    assert sorted(benchfile.undeclared(spec, "end_to_end", printed)) == [
        "op_p99_us is printed but not declared",
        "rss_mb is declared but not printed",
        "setup_s is printed in ms, declared in s",
    ]
