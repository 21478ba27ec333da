import workloads


def test_payload_pool_is_a_pure_function_of_the_seed():
    first = workloads.payload_pool(7, 3, 4096)
    assert first == workloads.payload_pool(7, 3, 4096)
    assert first != workloads.payload_pool(8, 3, 4096)
    assert [len(buffer) for buffer in first] == [4096] * 3
    assert len(set(first)) == 3


def test_itineraries_are_a_pure_function_of_the_seed():
    def draws(seed):
        rng = workloads.ChainResolve(seed).rng
        return [rng.sample("BCD", 3) for _ in range(5)]

    assert draws(3) == draws(3)
    assert draws(3) != draws(4)


class FlakyWorkload(workloads.Workload):
    """Op 2 raises, op 4 returns a wrong value, the others are right."""

    name = "flaky"
    warmup = 3

    def __init__(self, seed):
        super().__init__(seed)
        self.prepared = []

    def prepare(self, index):
        self.prepared.append(index)

    def op(self, index):
        if index == 2:
            raise RuntimeError("boom")
        return -1 if index == 4 else index

    def check(self, index, result):
        return result == index


def test_a_raising_or_wrong_op_counts_as_failed_against_attempted():
    workload = FlakyWorkload(1)
    round_, deltas = workloads.run_ops(workload, 0, count=6)
    assert (round_.attempted, round_.failed, len(round_.latencies)) == (6, 2, 4)
    assert workload.prepared == [0, 1, 2, 3, 4, 5]
    assert [index for index, _, _ in round_.windows] == [0, 1, 3, 5]
    assert "boom" in round_.errors[0] and "wrong output" in round_.errors[1]
    assert round_.busy >= sum(round_.latencies)
    assert deltas == {}


def test_counters_are_read_around_every_op():
    state = {"messages": 0.0}

    class Counting(FlakyWorkload):
        def op(self, index):
            state["messages"] += 2
            return index

    _, deltas = workloads.run_ops(Counting(1), 0, count=5, counters=lambda: dict(state))
    assert deltas == {"messages": 10.0}


class FakeDeployment:
    def __init__(self, shape, cores, store):
        self.made = (shape, cores, store)
        self.closed = False

    def close(self):
        self.closed = True


def test_set_up_times_bring_up_populate_and_the_fixed_warm_up():
    class Steady(FlakyWorkload):
        warmup = 2

    workload, took = workloads.set_up(Steady, 1, FakeDeployment)
    assert workload.deployment.made == ("procs", ["A"], False)
    assert workload.prepared == [0, 1]
    assert min(took.bring_up, took.populate, took.warm_up) >= 0.0
    assert took.total == took.bring_up + took.populate + took.warm_up > 0.0
    traced, _ = workloads.set_up(Steady, 1, FakeDeployment, traced=True)
    assert traced.deployment.made[0] == "hubs"


def test_a_failed_warm_up_tears_the_deployment_down():
    made = []

    def make(shape, cores, store):
        made.append(FakeDeployment(shape, cores, store))
        return made[-1]

    try:
        workloads.set_up(FlakyWorkload, 1, make)
    except RuntimeError as exc:
        assert "warm-up" in str(exc)
    else:
        raise AssertionError("the warm-up's failed op went unnoticed")
    assert made[0].closed
