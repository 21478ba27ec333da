"""A group move keeps at most one copy of its bulk per side, on any host.

``tracemalloc`` counts what the interpreter allocates, not what the
host's allocator keeps, so the bound holds wherever the suite runs.  The
same ratio is the ``move_peak_bytes_per_payload_byte`` metric of the
``movement`` (sim) and ``transport`` (TCP hub) bench areas.  With the
bulk pickled in-band the ratios were 4.03 and 6.04.
"""

from __future__ import annotations

import pytest

from repro.bench.scenarios import move_peak_ratio


def test_sim_move_allocates_the_arriving_copy_and_little_else():
    assert move_peak_ratio("sim") <= 1.25


@pytest.mark.tcp
def test_tcp_move_allocates_the_receive_buffer_and_the_arriving_copy():
    assert move_peak_ratio("tcp") <= 2.25
