"""Property tests for the versioned predictor-state layer.

Two invariants, checked for *every* predictor in the standard registry:

1. snapshot → restore into a fresh instance reproduces the exact state
   (``state_hash`` equality) and the exact future behaviour (identical
   predictions over a continuation of the trace);
2. any segmented execution (``stop_after``/``resume_from`` chains) is
   bit-identical to a straight-through run: same ``SimulationResult``,
   same final state hash.

Plus unit coverage of the :class:`PredictorState` envelope (canonical
encoding, hash verification, kind/version gating) and the
:class:`SimCheckpoint` JSON round-trip.
"""

import pytest

from repro.common.state import (
    PredictorState,
    StateError,
    canonical_bytes,
    payload_hash,
)
from repro.orchestration import standard_registry
from repro.predictors import Bimodal, GShare, Tage, TageConfig
from repro.sim import simulate
from repro.sim.metrics import SimCheckpoint
from repro.workloads import build_trace

REGISTRY = standard_registry()

# Deliberately awkward split points: mid-stream, adjacent, at warmup-ish
# boundaries.  Positions are absolute branch indices into the trace.
SPLITS = (137, 138, 400)


@pytest.fixture(scope="module")
def trace():
    return build_trace("INT1", 600)


def drive(predictor, trace, start, end):
    """Run the raw predict/train loop over [start, end) and collect
    predictions — behaviour equality, independent of the simulator."""
    out = []
    for position in range(start, end):
        out.append(predictor.predict(trace.pcs[position]))
        predictor.train(trace.pcs[position], trace.outcomes[position])
    return out


@pytest.mark.parametrize("name", sorted(REGISTRY))
class TestEveryRegisteredPredictor:
    def test_snapshot_restore_state_hash(self, name, trace):
        trained = REGISTRY[name]()
        drive(trained, trace, 0, 300)
        state = trained.snapshot()

        fresh = REGISTRY[name]()
        assert fresh.state_hash() != trained.state_hash(), (
            f"{name}: training 300 branches did not change the state hash"
        )
        fresh.restore(state)
        assert fresh.state_hash() == trained.state_hash()

        # Restored instance behaves identically in the future, and the
        # states stay in lockstep while both keep training.
        assert drive(fresh, trace, 300, 450) == drive(trained, trace, 300, 450)
        assert fresh.state_hash() == trained.state_hash()

    def test_snapshot_is_non_mutating(self, name, trace):
        predictor = REGISTRY[name]()
        drive(predictor, trace, 0, 200)
        before = predictor.state_hash()
        predictor.snapshot()
        assert predictor.state_hash() == before

    def test_snapshot_payload_is_canonical(self, name, trace):
        predictor = REGISTRY[name]()
        drive(predictor, trace, 0, 100)
        state = predictor.snapshot()
        # Round-trips through the JSON document form, including the
        # embedded integrity hash.
        again = PredictorState.from_json(state.to_json())
        assert again.hash() == state.hash()
        assert again.payload == state.payload

    def test_segmented_equals_straight(self, name, trace):
        straight = simulate(REGISTRY[name](), trace, track_providers=True)

        predictor = REGISTRY[name]()
        checkpoint = None
        for position in SPLITS:
            segment = simulate(
                predictor,
                trace,
                track_providers=True,
                resume_from=checkpoint,
                stop_after=position,
            )
            checkpoint = segment.checkpoint
            assert checkpoint is not None
            assert checkpoint.position == position
            # Re-install into a *fresh* instance for the next segment, so
            # the test exercises the restore path, not object reuse.
            predictor = REGISTRY[name]()
        final = simulate(
            predictor, trace, track_providers=True, resume_from=checkpoint
        )

        assert final == straight  # checkpoint excluded from equality
        assert final.mispredictions == straight.mispredictions
        assert final.provider_hits == straight.provider_hits
        assert final.checkpoint is not None
        reference = REGISTRY[name]()
        simulate(reference, trace)
        assert final.checkpoint.state_hash() == reference.state_hash()


class TestCanonicalEncoding:
    def test_key_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})
        assert payload_hash({"a": 1, "b": 2}) == payload_hash({"b": 2, "a": 1})

    def test_value_sensitivity(self):
        assert payload_hash({"a": 1}) != payload_hash({"a": 2})

    def test_nan_rejected(self):
        with pytest.raises(StateError, match="not canonically encodable"):
            canonical_bytes({"w": float("nan")})

    def test_non_json_rejected(self):
        with pytest.raises(StateError, match="not canonically encodable"):
            canonical_bytes({"w": object()})


class TestPredictorStateEnvelope:
    def state(self):
        return PredictorState(kind="Toy", version=1, payload={"t": [1, 2, 3]})

    def test_json_roundtrip(self):
        doc = self.state().to_json()
        again = PredictorState.from_json(doc)
        assert (again.kind, again.version, again.payload) == (
            "Toy", 1, {"t": [1, 2, 3]}
        )

    def test_tampered_payload_fails_hash_check(self):
        doc = self.state().to_json()
        doc["payload"]["t"][0] = 99
        with pytest.raises(StateError, match="hash mismatch"):
            PredictorState.from_json(doc)

    def test_unknown_format_rejected(self):
        doc = self.state().to_json()
        doc["format"] = 999
        with pytest.raises(StateError, match="unsupported state format"):
            PredictorState.from_json(doc)

    def test_restore_refuses_wrong_kind(self):
        predictor = Bimodal()
        wrong = PredictorState(kind="NotBimodal", version=1, payload={})
        with pytest.raises(StateError, match="cannot restore"):
            predictor.restore(wrong)

    def test_restore_refuses_wrong_version(self):
        predictor = Bimodal()
        state = predictor.snapshot()
        stale = PredictorState(
            kind=state.kind, version=state.version + 1, payload=state.payload
        )
        with pytest.raises(StateError, match="layout v"):
            predictor.restore(stale)

    def test_cross_predictor_restore_refused(self):
        with pytest.raises(StateError, match="cannot restore"):
            GShare().restore(Bimodal().snapshot())

    def test_diff_reports_leaf_paths(self):
        a = PredictorState(kind="Toy", version=1, payload={"t": [1, 2], "h": 0})
        b = PredictorState(kind="Toy", version=1, payload={"t": [1, 3], "h": 0})
        lines = a.diff(b)
        assert lines == ["t[1]: 2 != 3"]
        assert a.diff(a) == []


class TestRestoreComponents:
    def test_transplants_named_subtrees(self, trace):
        donor = GShare()
        drive(donor, trace, 0, 200)
        target = GShare()
        moved = target.restore_components(donor.snapshot(), ("table",))
        assert moved == ["table"]
        # The transplanted table matches the donor; the rest stays cold.
        assert target.snapshot().payload["table"] == donor.snapshot().payload["table"]

    def test_unknown_components_skipped(self):
        target = GShare()
        moved = target.restore_components(Bimodal().snapshot(), ("no-such",))
        assert moved == []

    def test_full_transplant_matches_restore(self, trace):
        donor = GShare()
        drive(donor, trace, 0, 200)
        state = donor.snapshot()
        target = GShare()
        target.restore_components(state, tuple(state.payload))
        assert target.state_hash() == donor.state_hash()


def _short_third_ctr(payload):
    tables = [dict(table) for table in payload["tables"]]
    tables[2]["ctr"] = tables[2]["ctr"][:-1]
    return {**payload, "tables": tables}


def _malformed_rs(payload):
    return {**payload, "rs": {"entries": [["x", 0, True]], "clock": 0}}


def _empty_loop_table(payload):
    return {**payload, "loop": {**payload["loop"], "table": []}}


#: (factory, corruption) pairs whose restore fails after some components
#: have already taken the new state.
PARTIAL_RESTORES = {
    "tage4-short-ctr": (lambda: Tage(TageConfig.for_tables(4)), _short_third_ctr),
    "bf-neural-malformed-rs": (REGISTRY["bf-neural"], _malformed_rs),
    "isl-tage10-empty-loop": (REGISTRY["isl-tage10"], _empty_loop_table),
}


@pytest.mark.parametrize("case", sorted(PARTIAL_RESTORES))
@pytest.mark.parametrize("via", ["restore", "restore_components"])
def test_failed_restore_leaves_predictor_untouched(case, via, trace):
    factory, corrupt = PARTIAL_RESTORES[case]
    predictor = factory()
    drive(predictor, trace, 0, 150)
    early = predictor.snapshot()
    drive(predictor, trace, 150, 600)
    bad = PredictorState(kind=early.kind, version=early.version, payload=corrupt(early.payload))
    before_hash, before = predictor.state_hash(), predictor.snapshot().payload
    with pytest.raises(StateError):
        if via == "restore":
            predictor.restore(bad)
        else:
            predictor.restore_components(bad, tuple(bad.payload))
    assert predictor.state_hash() == before_hash
    assert predictor.snapshot().payload == before


class TestSimCheckpoint:
    def checkpoint(self, trace):
        predictor = Bimodal()
        return simulate(predictor, trace, stop_after=100).checkpoint

    def test_json_roundtrip(self, trace):
        original = self.checkpoint(trace)
        again = SimCheckpoint.from_json(original.to_json())
        assert again == original
        assert again.state_hash() == original.state_hash()

    def test_trace_name_mismatch_refused(self, trace):
        other = build_trace("FP1", 600)
        with pytest.raises(ValueError, match="cannot resume over"):
            simulate(Bimodal(), other, resume_from=self.checkpoint(trace))

    def test_position_outside_trace_refused(self, trace):
        checkpoint = self.checkpoint(trace)
        beyond = SimCheckpoint(
            position=len(trace) + 1,
            mispredictions=checkpoint.mispredictions,
            provider_hits=checkpoint.provider_hits,
            predictor_state=checkpoint.predictor_state,
            trace_name=trace.name,
        )
        with pytest.raises(ValueError, match="outside trace"):
            simulate(Bimodal(), trace, resume_from=beyond)

    def test_stop_before_resume_refused(self, trace):
        with pytest.raises(ValueError, match="before resume position"):
            simulate(Bimodal(), trace, resume_from=self.checkpoint(trace), stop_after=50)

    def test_missing_fields_rejected(self):
        with pytest.raises(StateError, match="missing fields"):
            SimCheckpoint.from_json({"position": 3})


class TestCheckpointStreaming:
    def test_positions_are_absolute_multiples(self, trace):
        cuts = []
        simulate(
            Bimodal(), trace, checkpoint_every=150, on_checkpoint=cuts.append
        )
        positions = [cut.position for cut in cuts]
        # Cuts land on multiples of N strictly inside the trace (the
        # final position is carried by result.checkpoint instead).
        assert positions == list(range(150, len(trace), 150))
        assert all(cut.trace_name == trace.name for cut in cuts)

    def test_resumed_run_cuts_at_same_places(self, trace):
        cuts = []
        segment = simulate(Bimodal(), trace, stop_after=200)
        predictor = Bimodal()
        simulate(
            predictor,
            trace,
            resume_from=segment.checkpoint,
            checkpoint_every=150,
            on_checkpoint=cuts.append,
        )
        # Resume started at 200, yet cuts land on the straight run's grid.
        assert [cut.position for cut in cuts] == list(range(300, len(trace), 150))

    def test_streamed_cut_resumes_bit_identically(self, trace):
        straight = simulate(Bimodal(), trace)
        cuts = []
        simulate(Bimodal(), trace, checkpoint_every=250, on_checkpoint=cuts.append)
        resumed = simulate(Bimodal(), trace, resume_from=cuts[-1])
        assert resumed == straight

    def test_checkpoint_every_validated(self, trace):
        with pytest.raises(ValueError, match="must be positive"):
            simulate(Bimodal(), trace, checkpoint_every=0)
