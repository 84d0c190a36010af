"""Unit tests for ScheduleTrace / Segment."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.sim.trace import ScheduleTrace, Segment


class TestSegment:
    def test_duration(self):
        s = Segment(task=0, alpha=1, proc=0, start=2.0, end=5.0)
        assert s.duration == 3.0

    @pytest.mark.parametrize("start,end", [(1.0, 1.0), (2.0, 1.0)])
    def test_nonpositive_duration_rejected(self, start, end):
        with pytest.raises(ValidationError):
            Segment(task=0, alpha=0, proc=0, start=start, end=end)

    def test_frozen(self):
        s = Segment(0, 0, 0, 0.0, 1.0)
        with pytest.raises(AttributeError):
            s.end = 9.0


class TestScheduleTrace:
    def test_add_and_len(self):
        t = ScheduleTrace()
        t.add(0, 0, 0, 0.0, 1.0)
        t.add(1, 0, 0, 1.0, 2.0)
        assert len(t) == 2

    def test_makespan(self):
        t = ScheduleTrace()
        assert t.makespan() == 0.0
        t.add(0, 0, 0, 0.0, 3.0)
        t.add(1, 1, 0, 1.0, 2.0)
        assert t.makespan() == 3.0

    def test_segments_of_sorted(self):
        t = ScheduleTrace()
        t.add(5, 0, 0, 4.0, 5.0)
        t.add(5, 0, 1, 0.0, 2.0)
        segs = t.segments_of(5)
        assert [s.start for s in segs] == [0.0, 4.0]

    def test_executed_work(self):
        t = ScheduleTrace()
        t.add(0, 0, 0, 0.0, 2.0)
        t.add(0, 0, 1, 3.0, 4.0)
        t.add(1, 0, 0, 2.0, 3.0)
        assert list(t.executed_work(3)) == [3.0, 1.0, 0.0]

    def test_executed_work_unknown_task(self):
        t = ScheduleTrace()
        t.add(7, 0, 0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            t.executed_work(3)

    def test_first_start_last_end(self):
        t = ScheduleTrace()
        t.add(0, 0, 0, 1.0, 2.0)
        t.add(0, 0, 0, 5.0, 6.0)
        assert t.first_start(0) == 1.0
        assert t.last_end(0) == 6.0

    def test_first_start_missing_task(self):
        with pytest.raises(ValidationError):
            ScheduleTrace().first_start(0)

    def test_iteration(self):
        t = ScheduleTrace()
        t.add(0, 0, 0, 0.0, 1.0)
        assert [s.task for s in t] == [0]


class TestKilledSegments:
    def test_killed_flag_defaults_false(self):
        t = ScheduleTrace()
        t.add(0, 0, 0, 0.0, 1.0)
        assert not t.segments[0].killed
        assert t.killed_segments() == []

    def test_killed_segments_filter(self):
        t = ScheduleTrace()
        t.add(0, 0, 0, 0.0, 1.0, killed=True)
        t.add(0, 0, 0, 2.0, 3.0)
        assert [s.start for s in t.killed_segments()] == [0.0]

    def test_surviving_work_excludes_killed(self):
        t = ScheduleTrace()
        t.add(0, 0, 0, 0.0, 2.0, killed=True)
        t.add(0, 0, 0, 3.0, 7.0)
        t.add(1, 0, 1, 0.0, 1.0)
        assert list(t.surviving_work(2)) == [4.0, 1.0]
        assert list(t.executed_work(2)) == [6.0, 1.0]

    def test_cut_truncates_in_place_and_invalidates_caches(self):
        t = ScheduleTrace()
        t.add(0, 0, 0, 0.0, 4.0)
        t.add(1, 0, 1, 0.0, 1.0)
        assert t.as_columns()["end"].tolist() == [4.0, 1.0]
        assert t.last_end(0) == 4.0
        t.cut(0, 2.0)
        assert t.segments[0] == Segment(0, 0, 0, 0.0, 2.0, killed=True)
        assert t.as_columns()["killed"].tolist() == [True, False]
        assert t.last_end(0) == 2.0

    def test_surviving_work_unknown_task(self):
        t = ScheduleTrace()
        t.add(5, 0, 0, 0.0, 1.0, killed=True)
        with pytest.raises(ValidationError, match="unknown task"):
            t.surviving_work(2)


class TestColumnarView:
    def test_columns_match_segments(self):
        t = ScheduleTrace()
        t.add(3, 1, 2, 0.5, 1.5, killed=True)
        t.add(4, 0, 0, 1.0, 2.0)
        cols = t.as_columns()
        assert cols["task"].tolist() == [3, 4]
        assert cols["alpha"].tolist() == [1, 0]
        assert cols["proc"].tolist() == [2, 0]
        assert cols["start"].tolist() == [0.5, 1.0]
        assert cols["end"].tolist() == [1.5, 2.0]
        assert cols["killed"].tolist() == [True, False]

    def test_empty_trace_columns(self):
        cols = ScheduleTrace().as_columns()
        assert all(len(v) == 0 for v in cols.values())

    def test_caches_invalidated_by_add(self):
        t = ScheduleTrace()
        t.add(0, 0, 0, 0.0, 1.0)
        assert t.as_columns()["task"].tolist() == [0]
        assert t.first_start(0) == 0.0
        t.add(1, 0, 0, 1.0, 2.0)  # must invalidate both caches
        assert t.as_columns()["task"].tolist() == [0, 1]
        assert t.segments_of(1)[0].end == 2.0

    def test_columns_cached_between_adds(self):
        t = ScheduleTrace()
        t.add(0, 0, 0, 0.0, 1.0)
        assert t.as_columns() is t.as_columns()
