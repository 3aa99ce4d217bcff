"""The recorder's positional form writes what its keyword form writes.

``TraceRecorder.emit(kind, t, *values)`` formats the six records the
engine writes on every decision from per-kind ``%`` templates; the
keyword form ``emit(kind, t, **fields)`` is ``canonical_json`` of the
record.  Every line here is held to the keyword form's bytes, and
``trace_decision``'s ``considered`` text to the column table the policy
used to build as lists (``.tolist()`` of the batch arrays), on the
production index's selections and the reference index's packed
:class:`~tests.oracles.reference.ReferenceBatch` alike (whose text is
``canonical_json`` itself, so the two are a differential check).
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SimulationSetup
from repro.allocation.mfp import PlacementIndex
from repro.core.config import SimulationConfig
from repro.core.jobstate import JobState
from repro.core.policies.base import MAX_TRACED_CANDIDATES, SchedulingPolicy
from repro.core.simulator import Simulator
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.geometry.partition import Partition
from repro.geometry.shapes import all_shapes
from repro.geometry.torus import Torus
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.records import canonical_json
from repro.workloads.job import Job
from tests.oracles import ReferencePlacementIndex, oracle_simulator, random_torus
from tests.oracles.reference import ReferenceBatch

D = BGL_SUPERNODE_DIMS
SHAPES = all_shapes(D)

# An int slot takes Python and numpy ints, past 2**53 too; a float slot
# Python and numpy floats, signed zero and both ends of the range.
plain_ints = st.integers(min_value=0, max_value=2**63 - 1) | st.sampled_from(
    [0, 2**53, 2**53 + 1, 2**63 - 1]
)
ints = plain_ints | plain_ints.map(np.int64)
plain_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
)
floats = plain_floats | plain_floats.map(np.float64)
times = floats | plain_ints
coords = st.tuples(*(st.integers(0, n - 1) for n in D))
shapes = st.sampled_from(SHAPES)
NON_FINITE = (math.nan, math.inf, -math.inf)


def plain(value):
    """``value`` as the keyword form is handed it: Python scalars, lists."""
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def lines(kind, t, values, fields):
    """(positional line, keyword line) of one record."""
    positional, keyword = TraceRecorder(), TraceRecorder()
    positional.emit(kind, t, *values)
    keyword.emit(kind, plain(t), **{k: plain(v) for k, v in fields.items()})
    return positional.lines[0], keyword.lines[0]


#: kind -> (drawn positional values, their keyword names).
KINDS = {
    "arrival": (st.tuples(ints, ints), ("job", "size")),
    "finish": (st.tuples(ints), ("job",)),
    "failure": (st.tuples(ints, st.none() | ints), ("node", "killed_job")),
    "dispatch": (
        st.tuples(
            ints, ints, coords, shapes,
            st.sampled_from(["fcfs", "backfill", "migration"]), floats, floats,
        ),
        ("job", "size", "base", "shape", "via", "wall", "est_finish"),
    ),
    "backfill": (
        st.tuples(ints, ints, st.none() | floats, floats),
        ("job", "head_job", "shadow", "est_wall"),
    ),
}


class TestPositionalLines:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_line_equals_the_keyword_form(self, kind, data):
        strategy, names = KINDS[kind]
        t, values = data.draw(times), data.draw(strategy)
        positional, keyword = lines(kind, t, values, dict(zip(names, values)))
        assert positional == keyword
        assert positional.endswith("}\n") and "\n" not in positional[:-1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_stream_equals_the_keyword_stream(self, data):
        """One recorder, many records: times repeat (one event batch) and
        change (the next), as the engine writes them."""
        positional, keyword = TraceRecorder(), TraceRecorder()
        pool = data.draw(st.lists(times, min_size=1, max_size=3))
        for _ in range(data.draw(st.integers(1, 12))):
            kind = data.draw(st.sampled_from(sorted(KINDS)))
            strategy, names = KINDS[kind]
            t, values = data.draw(st.sampled_from(pool)), data.draw(strategy)
            positional.emit(kind, t, *values)
            keyword.emit(kind, plain(t), **{k: plain(v) for k, v in zip(names, values)})
        assert positional.lines == keyword.lines

    @settings(max_examples=150, deadline=None)
    @given(
        t=times, job=ints, size=ints, n=ints, truncated=st.booleans(),
        chosen=st.builds(Partition, coords, shapes),
        policy=st.sampled_from(["krevat", "balancing", "tiebreak", "naïve"]),
    )
    def test_candidates_line_equals_the_keyword_form(
        self, t, job, size, n, truncated, chosen, policy
    ):
        considered = {"base": [[0, 1, 2]], "p_f": [0.5], "shape": [[1, 1, 2]]}
        positional, keyword = lines(
            "candidates", t,
            (job, size, policy, n, canonical_json(considered), truncated, chosen),
            {
                "job": job, "size": size, "policy": policy, "n_candidates": n,
                "considered": considered, "truncated": truncated,
                "chosen": {"base": list(chosen.base), "shape": list(chosen.shape)},
            },
        )
        assert positional == keyword

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize(
        "kind, values, fields",
        [
            ("dispatch", (1, 8, (0, 0, 0), (2, 2, 2), "fcfs", "X", 1.0),
             {"job": 1, "size": 8, "base": [0, 0, 0], "shape": [2, 2, 2],
              "via": "fcfs", "wall": "X", "est_finish": 1.0}),
            ("dispatch", (1, 8, (0, 0, 0), (2, 2, 2), "fcfs", 1.0, "X"),
             {"job": 1, "size": 8, "base": [0, 0, 0], "shape": [2, 2, 2],
              "via": "fcfs", "wall": 1.0, "est_finish": "X"}),
            ("backfill", (1, 0, "X", 1.0),
             {"job": 1, "head_job": 0, "shadow": "X", "est_wall": 1.0}),
            ("backfill", (1, 0, 1.0, "X"),
             {"job": 1, "head_job": 0, "shadow": 1.0, "est_wall": "X"}),
        ],
    )
    def test_non_finite_float_slot_raises_in_both_forms(self, kind, values, fields, bad):
        for make in (float, np.float64):
            sub = make(bad)
            swap = lambda v: sub if isinstance(v, str) and v == "X" else v  # noqa: E731
            for emit in (
                lambda rec: rec.emit(kind, 0.0, *map(swap, values)),
                lambda rec: rec.emit(kind, 0.0, **{k: swap(v) for k, v in fields.items()}),
            ):
                sink = io.StringIO()
                rec = TraceRecorder(sink=sink)
                with pytest.raises(ValueError):
                    emit(rec)
                assert sink.getvalue() == "" and len(rec) == 0

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("kind, values", [
        ("arrival", (1, 2)), ("finish", (1,)), ("failure", (3, None)),
        ("backfill", (1, 0, None, 1.0)),
    ])
    def test_non_finite_time_raises_in_both_forms(self, kind, values, bad):
        for emit in (
            lambda rec: rec.emit(kind, bad, *values),
            lambda rec: rec.emit(kind, bad, x=1),
        ):
            rec = TraceRecorder()
            with pytest.raises(ValueError):
                emit(rec)
            assert rec.lines == []

    def test_both_forms_at_once_refused(self):
        with pytest.raises(TypeError):
            TraceRecorder().emit("arrival", 0.0, 1, size=2)

    def test_null_recorder_takes_the_positional_form(self):
        NULL_RECORDER.emit("dispatch", 0.0, 1, 8, (0, 0, 0), (2, 2, 2), "fcfs", 1.0, 2.0)
        NULL_RECORDER.emit("arrival", math.nan, 1, 2)
        assert len(NULL_RECORDER) == 0


# ----------------------------------------------------------------------
# trace_decision: the considered table as text
# ----------------------------------------------------------------------
class _Recording(SchedulingPolicy):
    name = "recording"

    def choose_partition(self, index, state, now):  # pragma: no cover - unused
        raise NotImplementedError


def table_as_lists(batch, rows, scores):
    """The ``considered`` table as the policy built it before it was
    text: the batch arrays' and score columns' ``tolist()``."""
    shown = slice(0, MAX_TRACED_CANDIDATES)
    examined = shown if rows is None else rows[shown]
    table = {
        "base": batch.bases[examined].tolist(),
        "shape": batch.shape_rows()[examined].tolist(),
    }
    for key, column in scores.items():
        table[key] = column[shown].tolist()
    return table


def decision_lines(batch, rows, scores, now=12.5, size=8):
    """(``trace_decision``'s line, the keyword form's line)."""
    state = JobState(Job(7, 0.0, size, 60.0, 60.0))
    chosen = batch.partition(0)
    policy = _Recording()
    policy.recorder = TraceRecorder()
    policy.trace_decision(state, now, batch, chosen, rows, **scores)
    n_examined = len(batch) if rows is None else len(rows)
    expected = TraceRecorder()
    expected.emit(
        "candidates", now, job=7, size=size, policy="recording",
        n_candidates=len(batch), considered=table_as_lists(batch, rows, scores),
        truncated=n_examined > MAX_TRACED_CANDIDATES,
        chosen={"base": list(chosen.base), "shape": list(chosen.shape)},
    )
    return policy.recorder.lines[0], expected.lines[0]


def score_columns(n):
    """Score columns of length ``n``: int, float and bool, as policies
    compute them."""
    return st.fixed_dictionaries(
        {},
        optional={
            "l_mfp": st.lists(st.integers(0, 128), min_size=n, max_size=n).map(
                lambda v: np.array(v, dtype=np.int64)
            ),
            "p_f": st.lists(plain_floats, min_size=n, max_size=n).map(
                lambda v: np.array(v, dtype=np.float64)
            ),
            "predicted_failure": st.lists(st.booleans(), min_size=n, max_size=n).map(
                lambda v: np.array(v, dtype=bool)
            ),
        },
    )


@st.composite
def packed_batches(draw):
    """A packed batch (the reference index's :class:`ReferenceBatch`) of
    drawn groups: ``1..90`` rows, so ``truncated`` goes both ways."""
    groups = draw(st.lists(st.tuples(shapes, st.lists(coords, min_size=1, max_size=30)),
                           min_size=1, max_size=3))
    bases = np.array([b for _, group in groups for b in group], dtype=np.int64)
    extents = np.array([s for s, group in groups for _ in group], dtype=np.int64)
    return ReferenceBatch(bases, extents)


class TestConsideredText:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_packed_batch_line_equals_the_list_table(self, data):
        batch = data.draw(packed_batches())
        rows = data.draw(st.none() | st.permutations(range(len(batch))).flatmap(
            lambda p: st.integers(1, len(p)).map(lambda k: np.array(p[:k], dtype=np.intp))
        ))
        n = len(batch) if rows is None else len(rows)
        scores = data.draw(score_columns(n))
        traced, expected = decision_lines(batch, rows, scores)
        assert traced == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), size=st.sampled_from([1, 2, 4, 8, 16, 32]),
           data=st.data())
    def test_selection_and_packed_batch_give_the_same_bytes(self, seed, size, data):
        torus = random_torus(D, seed, attempts=8)
        production = PlacementIndex(torus)
        if not production.has_candidate(size):
            return
        selected = production.candidate_batch(size)
        packed = ReferencePlacementIndex(torus).candidate_batch(size)
        scores = data.draw(score_columns(len(selected)))
        lines_selected = decision_lines(selected, None, scores)
        lines_packed = decision_lines(packed, None, scores)
        assert lines_selected[0] == lines_selected[1] == lines_packed[0]
        # A selection gathers its text from its size table; the
        # reference's is ``canonical_json`` of its own arrays: equal for
        # any rows a policy examines.
        n = len(selected)
        for rows in (slice(None), data.draw(
            st.builds(slice, st.integers(0, n), st.integers(0, n))
            | st.lists(st.integers(0, n - 1), max_size=70).map(
                lambda v: np.array(v, dtype=np.intp)
            )
        )):
            assert selected.column_text(rows) == packed.column_text(rows)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_score_raises_and_writes_nothing(self, bad):
        batch = PlacementIndex(random_torus(D, 0, attempts=4)).candidate_batch(4)
        p_f = np.full(len(batch), 0.25)
        p_f[0] = bad
        with pytest.raises(ValueError):
            decision_lines(batch, None, {"p_f": p_f})


def forced_torus(axis: int, free: int, at: int) -> Torus:
    """A torus whose one free box spans every axis but ``axis`` fully
    and is ``free`` long on it from ``at``: a size with exactly one
    candidate, its base canonical (0) on the fully-spanned axes."""
    torus = Torus(D)
    base, shape = [0, 0, 0], list(D.as_tuple())
    base[axis], shape[axis] = (at + free) % shape[axis], shape[axis] - free
    torus.allocate(0, Partition(tuple(base), tuple(shape)))
    return torus


class TestForcedChoice:
    @pytest.mark.parametrize("index_class", [PlacementIndex, ReferencePlacementIndex])
    @pytest.mark.parametrize(
        "torus",
        [Torus(D), forced_torus(2, 2, 5), forced_torus(2, 7, 3), forced_torus(0, 1, 2),
         forced_torus(1, 3, 1)],
        ids=["empty", "z-slab-2", "z-slab-7", "x-slab-1", "y-slab-3"],
    )
    def test_forced_line_equals_the_keyword_form(self, torus, index_class):
        """A forced choice with no score column is formatted from its
        partition; its line is ``canonical_json`` of the record and the
        line the general path writes for the same batch."""
        size = torus.free_count
        batch = index_class(torus).candidate_batch(size)
        assert len(batch) == 1
        state = JobState(Job(7, 0.0, size, 60.0, 60.0))
        policy = _Recording()
        policy.recorder = TraceRecorder()
        chosen = policy.place_unscored(state, 12.5, batch)
        assert chosen == batch.partition(0) and torus.is_free(chosen)
        expected = TraceRecorder()
        expected.emit(
            "candidates", 12.5, job=7, size=size, policy="recording", n_candidates=1,
            considered={"base": [list(chosen.base)], "shape": [list(chosen.shape)]},
            truncated=False,
            chosen={"base": list(chosen.base), "shape": list(chosen.shape)},
        )
        general, keyword = decision_lines(batch, None, {}, size=size)
        assert policy.recorder.lines == expected.lines == [general] == [keyword]

    def test_scored_forced_choice_keeps_its_column(self):
        """Tie-break's forced choice carries the predictor's answer."""
        torus = forced_torus(2, 2, 5)
        batch = PlacementIndex(torus).candidate_batch(32)
        policy = _Recording()
        policy.recorder = TraceRecorder()
        policy.place_unscored(
            JobState(Job(7, 0.0, 32, 60.0, 60.0)), 1.0, batch,
            predicted_failure=np.array([True]),
        )
        (record,) = policy.recorder.records
        assert record["considered"] == {
            "base": [[0, 0, 5]], "predicted_failure": [True], "shape": [[4, 4, 2]],
        }


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------
def faulty_setup(policy="balancing", parameter=0.1, **config):
    return SimulationSetup(
        site="sdsc", n_jobs=80, n_failures=80, policy=policy, parameter=parameter,
        seed=4, config=SimulationConfig(**config),
    )


@pytest.mark.parametrize(
    "setup",
    [
        faulty_setup(),
        faulty_setup("tiebreak", 0.7, migration=True),
        faulty_setup("krevat", 0.0),
    ],
    ids=["balancing", "tiebreak-migration", "krevat"],
)
class TestRecorderModes:
    def test_buffered_records_equal_the_decoded_streamed_lines(self, setup):
        sink = io.StringIO()
        Simulator(*setup.build_inputs(), setup.config, recorder=TraceRecorder(sink=sink)).run()
        buffered = TraceRecorder()
        Simulator(*setup.build_inputs(), setup.config, recorder=buffered).run()
        streamed = sink.getvalue().splitlines(keepends=True)
        assert buffered.lines == streamed
        assert buffered.records == [json.loads(line) for line in streamed]

    def test_reference_index_run_writes_the_same_bytes(self, setup):
        """The reference engine's packed batches trace what production's
        selections trace."""
        streams = []
        for build in (Simulator, oracle_simulator):
            sink = io.StringIO()
            build(*setup.build_inputs(), setup.config, recorder=TraceRecorder(sink=sink)).run()
            streams.append(sink.getvalue())
        assert streams[0] == streams[1]
        assert '"kind":"candidates"' in streams[0]
