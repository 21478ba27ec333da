"""Tests for identifier generation and display forms."""

import collections
import itertools
import threading

import pytest

from repro.core.invocation import _REQ_HEADER
from repro.errors import FarGoError, SerialsExhaustedError
from repro.util.ids import LIFE_SPAN, CompletId, IdGenerator, TrackerId

#: Lives whose serials fit a 32-bit field: the last one is LIVES - 1.
LIVES = (1 << 32) // LIFE_SPAN


def skip_to_the_last(gen: IdGenerator, minted: int) -> None:
    """Draw, unseen, every serial between ``minted`` and ``gen``'s last."""
    collections.deque(itertools.islice(gen._counter, gen._stop - minted - 2), maxlen=0)


class TestIdGenerator:
    def test_monotonic(self):
        gen = IdGenerator()
        values = [gen.next() for _ in range(100)]
        assert values == sorted(values)
        assert len(set(values)) == 100

    def test_start_offset(self):
        gen = IdGenerator(start=42)
        assert gen.next() == 42
        assert gen.next() == 43

    def test_thread_safety(self):
        gen = IdGenerator()
        results: list[int] = []
        lock = threading.Lock()

        def worker():
            local = [gen.next() for _ in range(500)]
            with lock:
                results.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4000
        assert len(set(results)) == 4000


class TestLives:
    def test_the_first_life_numbers_from_one(self):
        gen = IdGenerator.for_life(0)
        assert [gen.next() for _ in range(3)] == [1, 2, 3]

    @pytest.mark.parametrize("life", [0, 1, LIVES - 1])
    def test_a_life_mints_its_own_range_and_no_further(self, life):
        gen = IdGenerator.for_life(life)
        first = gen.next()
        assert first == life * LIFE_SPAN + 1
        skip_to_the_last(gen, first)
        last = gen.next()
        assert last == min((life + 1) * LIFE_SPAN, (1 << 32) - 1)
        assert _REQ_HEADER.unpack(_REQ_HEADER.pack(last, 0)) == (last, 0)
        with pytest.raises(SerialsExhaustedError, match="past this range"):
            gen.next()

    def test_a_life_past_the_last_mints_nothing(self):
        with pytest.raises(SerialsExhaustedError) as raised:
            IdGenerator.for_life(LIVES).next()
        assert isinstance(raised.value, FarGoError)


class TestCompletId:
    def test_str_with_type(self):
        cid = CompletId("technion", 3, "Message")
        assert str(cid) == "technion/c3:Message"

    def test_str_without_type(self):
        cid = CompletId("technion", 3)
        assert str(cid) == "technion/c3"

    def test_short_form(self):
        cid = CompletId("acadia", 7, "Printer")
        assert cid.short() == "Printer#7@acadia"

    def test_short_form_untyped(self):
        assert CompletId("x", 1).short() == "complet#1@x"

    def test_equality_and_hash(self):
        a = CompletId("c", 1, "T")
        b = CompletId("c", 1, "T")
        assert a == b
        assert hash(a) == hash(b)
        assert a != CompletId("c", 2, "T")

    def test_immutable(self):
        cid = CompletId("c", 1, "T")
        try:
            cid.serial = 5  # type: ignore[misc]
            raised = False
        except AttributeError:
            raised = True
        assert raised


class TestTrackerId:
    def test_str(self):
        assert str(TrackerId("alpha", 9)) == "alpha/t9"

    def test_equality(self):
        assert TrackerId("a", 1) == TrackerId("a", 1)
        assert TrackerId("a", 1) != TrackerId("b", 1)
