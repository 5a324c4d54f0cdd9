"""Tests for the always-on prediction service (``repro.serving``).

Covers the acceptance guarantees of ``docs/serving.md``:

* **Bit-identity** — an online session (predict → compare → train per
  event over the wire) yields the same final ``state_hash`` and
  misprediction count as the offline simulator, for *every* registered
  predictor, both cold and warm-hydrated from the snapshot pool.
* **Warm pool determinism** — eviction and rehydration (memory →
  StateStore → simulate) can never change a hash; churn is observable
  through ``pool_evict``/``warm_hydrate`` telemetry.
* **Auth** — the shared-secret handshake on both the prediction server
  and the campaign coordinator, with ``auth_reject`` telemetry.
* **Chunked frames** — a hypothesis property test round-trips logical
  messages far above a (shrunken) frame limit.
* **Failure handling** — a SIGKILLed server surfaces as a client error,
  not a hang or a wrong answer.

Everything here is marked ``serving`` (deselect with
``-m 'not serving'`` on boxes without threads or loopback sockets).
"""

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.orchestration import CampaignPlan, Telemetry, TraceSpec, run_plan
from repro.orchestration.distserver import Coordinator
from repro.orchestration.registry import standard_registry, trace_spec_for
from repro.orchestration.telemetry import read_events
from repro.orchestration.remote import (
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    AuthError,
    ProtocolError,
    recv_message,
    run_executor,
    send_message,
    token_matches,
)
from repro.orchestration import remote
from repro.orchestration.telemetry import EVENT_FIELDS, SCHEMA_VERSION
from repro.serving import (
    PROFILES,
    PoolError,
    PredictClient,
    PredictionServer,
    ServeError,
    WarmSnapshotPool,
    percentile,
    run_load,
)
from repro.serving.server import KERNEL_MIN_EVENTS
from repro.sim import simulate
from repro.sim.batchkernel import kernel_for
from repro.sim.simulator import run_events
from repro.workloads import SUITE_NAMES, WILD_NAMES, build_trace

pytestmark = pytest.mark.serving

#: Every registered config whose predictor has a batch kernel.
KERNEL_CONFIGS = ("gshare", "perceptron", "oh-snap", "tage10", "bf-tage10", "bf-neural")

REGISTRY_REF = "tests.test_serving:toy_registry"


def toy_registry():
    from repro.predictors import Bimodal, GShare

    return {"bimodal": Bimodal, "gshare": lambda: GShare(history_bits=8)}


@pytest.fixture
def server_factory():
    """Start PredictionServers and guarantee they stop at teardown."""
    servers = []

    def start(**kwargs):
        server = PredictionServer(**kwargs)
        server.start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


def events_of(events, kind):
    return [e for e in events if e["event"] == kind]


# --------------------------------------------------------------------------
# protocol: chunked continuation frames
# --------------------------------------------------------------------------


def chunked_roundtrip(message, limit):
    """Send→recv one message under a shrunken frame limit.

    The receiver runs on its own thread, as real peers do — hundreds of
    tiny chunk frames overflow a socketpair buffer long before the
    16 MiB production limit would.
    """
    original = remote.MAX_MESSAGE_BYTES
    left, right = socket.socketpair()
    received = []
    try:
        remote.MAX_MESSAGE_BYTES = limit
        reader = threading.Thread(
            target=lambda: received.append(recv_message(right)), daemon=True
        )
        reader.start()
        send_message(left, message)
        reader.join(timeout=30)
        assert not reader.is_alive(), "receiver never assembled the message"
        return received[0]
    finally:
        remote.MAX_MESSAGE_BYTES = original
        left.close()
        right.close()


class TestChunkedFrames:
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(
        payload=st.text(min_size=0, max_size=3000),
        numbers=st.lists(st.integers(0, 2**32), max_size=200),
        limit=st.integers(192, 512),
    )
    def test_oversized_messages_roundtrip(self, payload, numbers, limit):
        """Any message survives send→recv regardless of the frame limit."""
        message = {"type": "events", "session": payload, "pcs": numbers,
                   "outcomes": []}
        assert chunked_roundtrip(message, limit) == message

    def test_tiny_frame_limit_still_delivers(self):
        """Even a double-digit limit degrades to byte-at-a-time chunks."""
        message = {"type": "session_close", "session": "s" * 500}
        assert chunked_roundtrip(message, 64) == message

    def test_small_messages_stay_unchunked(self):
        left, right = socket.socketpair()
        try:
            send_message(left, {"type": "claim", "executor": "e"})
            frame = remote._recv_frame(right)
            assert frame == {"type": "claim", "executor": "e"}
        finally:
            left.close()
            right.close()

    def test_broken_chunk_sequence_rejected(self):
        left, right = socket.socketpair()
        try:
            import base64 as b64
            for seq in (0, 2):  # skips seq 1
                frame = {"type": "chunk", "seq": seq, "last": seq == 2,
                         "data": b64.b64encode(b"x").decode("ascii")}
                send_message(left, frame)
            with pytest.raises(ProtocolError, match="sequence"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_chunked_messages_cannot_nest(self):
        import base64 as b64
        import json

        left, right = socket.socketpair()
        try:
            inner = json.dumps({"type": "chunk", "seq": 0, "last": True,
                                "data": ""}).encode()
            frame = {"type": "chunk", "seq": 0, "last": True,
                     "data": b64.b64encode(inner).decode("ascii")}
            send_message(left, frame)
            with pytest.raises(ProtocolError, match="nest"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_message_beyond_chunk_budget_refused(self):
        original = remote.MAX_MESSAGE_BYTES
        left, right = socket.socketpair()
        try:
            remote.MAX_MESSAGE_BYTES = 32
            huge = {"type": "events", "session": "x" * (remote.MAX_CHUNKS * 40),
                    "pcs": [], "outcomes": []}
            with pytest.raises(ProtocolError, match="chunks"):
                send_message(left, huge)
        finally:
            remote.MAX_MESSAGE_BYTES = original
            left.close()
            right.close()


# --------------------------------------------------------------------------
# vocabulary: closed schemas stay closed
# --------------------------------------------------------------------------


class TestVocabulary:
    def test_serving_messages_registered(self):
        for kind in ("serve_hello", "serve_welcome", "session_open", "session",
                     "events", "predictions", "session_close",
                     "session_summary", "serve_bye", "chunk"):
            assert kind in MESSAGE_TYPES

    def test_schema_v4_declares_serving_kinds(self):
        assert SCHEMA_VERSION == 4
        assert EVENT_FIELDS["serve_start"] == ("host", "port")
        assert EVENT_FIELDS["pool_evict"] == ("shard", "reason")
        assert EVENT_FIELDS["warm_hydrate"] == ("shard", "source", "position")
        assert EVENT_FIELDS["auth_reject"] == ("peer",)
        assert "p99_ms" in EVENT_FIELDS["loadgen_report"]

    def test_token_matches_semantics(self):
        assert token_matches(None, None)
        assert token_matches(None, "anything")
        assert token_matches("s", "s")
        assert not token_matches("s", "wrong")
        assert not token_matches("s", None)


# --------------------------------------------------------------------------
# wild workloads
# --------------------------------------------------------------------------


class TestWildWorkloads:
    def test_wild_traces_deterministic(self):
        for name in WILD_NAMES:
            first = build_trace(name, 2000)
            second = build_trace(name, 2000)
            assert first.pcs == second.pcs
            assert first.outcomes == second.outcomes

    def test_wild_names_do_not_pollute_the_suite(self):
        assert len(SUITE_NAMES) == 40
        assert not set(WILD_NAMES) & set(SUITE_NAMES)

    def test_trace_spec_resolves_wild_names(self):
        spec = trace_spec_for("WILD2", 1500)
        trace = spec.resolve()
        assert trace.name == "WILD2"
        assert len(trace) >= 1500

    def test_wild_traces_are_hard(self):
        """Wild content must stay materially harder than a calibrated trace."""
        predictor = standard_registry()["bf-tage10"]
        wild = simulate(predictor(), build_trace("WILD1", 4000))
        tame = simulate(predictor(), build_trace("FP1", 4000))
        assert wild.misprediction_rate > tame.misprediction_rate


# --------------------------------------------------------------------------
# bit-identity: the serving correctness contract
# --------------------------------------------------------------------------


class TestBitIdentity:
    BRANCHES = 900

    def test_online_equals_offline_for_every_predictor(self, server_factory):
        registry = standard_registry()
        trace = build_trace("WILD3", self.BRANCHES)
        server = server_factory(registry=registry)
        with PredictClient(server.address) as client:
            for config, factory in sorted(registry.items()):
                summary = client.stream_trace(config, "WILD3", trace, batch=256)
                offline = factory()
                result = simulate(offline, trace)
                assert summary["mispredictions"] == result.mispredictions, config
                assert summary["state_hash"] == offline.state_hash(), config
                assert summary["events"] == len(trace), config

    def test_warm_session_equals_straight_offline_for_every_predictor(
        self, tmp_path, server_factory
    ):
        registry = standard_registry()
        trace = build_trace("WILD4", self.BRANCHES)
        pool = WarmSnapshotPool(
            registry,
            state_dir=str(tmp_path / "state"),
            warmup_branches=300,
            max_shards=32,
            branches=self.BRANCHES,
        )
        server = server_factory(registry=registry, pool=pool)
        with PredictClient(server.address) as client:
            for config, factory in sorted(registry.items()):
                summary = client.stream_trace(
                    config, "WILD4", trace, batch=256,
                    warm=True, branches=self.BRANCHES, warmup=300,
                )
                assert summary["started_at"] == 300, config
                offline = factory()
                result = simulate(offline, trace)
                assert summary["mispredictions"] == result.mispredictions, config
                assert summary["state_hash"] == offline.state_hash(), config

    #: Batches on both sides of ``KERNEL_MIN_EVENTS``, short and long mixed.
    BATCHES = (1, 7, 100, KERNEL_MIN_EVENTS - 1, KERNEL_MIN_EVENTS, 5_000, 256)
    WARMUP = 1_024

    def test_batch_size_never_changes_the_answer(self, tmp_path, server_factory):
        """Every kernel-backed config, cold and warm, in one session that
        mixes short batches (``run_events``) with long ones (the kernel):
        each prediction, the miss count and ``state_hash`` equal scalar
        ``simulate()``."""
        registry = standard_registry()
        branches = self.WARMUP + sum(self.BATCHES)
        trace = build_trace("SERV1", branches).truncated(branches)
        pool = WarmSnapshotPool(
            registry, state_dir=str(tmp_path), warmup_branches=self.WARMUP, branches=branches
        )
        server = server_factory(registry=registry, pool=pool)
        with PredictClient(server.address) as client:
            for config in KERNEL_CONFIGS:
                assert kernel_for(registry[config]()) is not None, config
                offline = registry[config]()
                expected = [False] * len(trace)
                run_events(offline.predict, offline.train, trace.pcs, trace.outcomes, expected, 0)
                reference = registry[config]()
                result = simulate(reference, trace)
                for warm in (False, True):
                    opened = client.open_session(
                        config, "SERV1", warm=warm, branches=branches, warmup=self.WARMUP
                    )
                    start = lo = opened["position"]
                    assert start == (self.WARMUP if warm else 0), config
                    # A cold session streams the warmup prefix itself first.
                    sizes = self.BATCHES if warm else (self.WARMUP,) + self.BATCHES
                    predictions = []
                    for size in sizes:
                        got, _ = client.send_events(
                            opened["session"], trace.pcs[lo : lo + size],
                            trace.outcomes[lo : lo + size],
                        )
                        predictions += got
                        lo += size
                    summary = client.close_session(opened["session"])
                    where = (config, "warm" if warm else "cold")
                    assert lo == len(trace), where
                    assert predictions == expected[start:], where
                    assert summary["mispredictions"] == result.mispredictions, where
                    assert summary["state_hash"] == reference.state_hash(), where


    @pytest.mark.vectorized
    @pytest.mark.skipif(
        not os.environ.get("REPRO_FULL_DIFFERENTIAL"),
        reason="full 44-trace sweep; set REPRO_FULL_DIFFERENTIAL=1 "
        "(run_all_experiments.sh does)",
    )
    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    def test_full_suite_served_equals_offline(self, server_factory, config):
        """Every suite and wild trace, streamed at the client's default
        batch (on the kernel past its first batch boundary), equals scalar
        ``simulate()``."""
        registry = standard_registry()
        server = server_factory(registry=registry)
        with PredictClient(server.address) as client:
            for name in tuple(SUITE_NAMES) + tuple(WILD_NAMES):
                trace = build_trace(name, 12_000)
                summary = client.stream_trace(config, name, trace)
                offline = registry[config]()
                result = simulate(offline, trace)
                assert summary["mispredictions"] == result.mispredictions, name
                assert summary["state_hash"] == offline.state_hash(), name


# --------------------------------------------------------------------------
# warm snapshot pool
# --------------------------------------------------------------------------


class TestWarmSnapshotPool:
    def test_eviction_and_rehydration_are_deterministic(self, tmp_path):
        events = []
        pool = WarmSnapshotPool(
            toy_registry(),
            state_dir=str(tmp_path),
            warmup_branches=200,
            max_shards=1,
            branches=600,
            telemetry=Telemetry(subscribers=(events.append,)),
        )
        first = pool.acquire("bimodal", "FP1")
        first_hash = first.state_hash()
        pool.acquire("gshare", "FP1")  # evicts the bimodal shard
        assert events_of(events, "pool_evict")
        assert events_of(events, "pool_evict")[0]["shard"] == first.key.label()
        rehydrated = pool.acquire("bimodal", "FP1")
        assert rehydrated.state_hash() == first_hash
        sources = [e["source"] for e in events_of(events, "warm_hydrate")]
        assert sources == ["simulated", "simulated", "store"]

    def test_pool_hit_skips_hydration(self, tmp_path):
        pool = WarmSnapshotPool(
            toy_registry(), state_dir=str(tmp_path), warmup_branches=100,
            branches=400,
        )
        shard = pool.acquire("bimodal", "INT1")
        again = pool.acquire("bimodal", "INT1")
        assert again is shard
        assert pool.stats()["hydrations"] == 1
        assert pool.stats()["hits"] == 1

    def test_store_shared_across_pools(self, tmp_path):
        first = WarmSnapshotPool(
            toy_registry(), state_dir=str(tmp_path), warmup_branches=150,
            branches=500,
        )
        hash_a = first.acquire("gshare", "MM1").state_hash()
        events = []
        second = WarmSnapshotPool(
            toy_registry(), state_dir=str(tmp_path), warmup_branches=150,
            branches=500,
            telemetry=Telemetry(subscribers=(events.append,)),
        )
        assert second.acquire("gshare", "MM1").state_hash() == hash_a
        assert events_of(events, "warm_hydrate")[0]["source"] == "store"

    def test_unknown_names_raise_pool_errors(self, tmp_path):
        pool = WarmSnapshotPool(toy_registry(), state_dir=str(tmp_path))
        with pytest.raises(PoolError, match="unknown predictor"):
            pool.acquire("nope", "FP1")
        with pytest.raises(PoolError, match="cannot build workload"):
            pool.acquire("bimodal", "NOT-A-TRACE")

    def test_lookup_routes_by_pc_range(self):
        pool = WarmSnapshotPool(toy_registry(), warmup_branches=200, branches=600)
        shard = pool.acquire("bimodal", "SERV1")
        assert pool.lookup("SERV1", shard.pc_lo) == [shard]
        assert pool.lookup("SERV1", shard.pc_hi + 1) == []
        assert pool.lookup("FP1", shard.pc_lo) == []

    @pytest.mark.parametrize("config", ["gshare", "tage10", "bf-neural"])
    def test_kernel_warmup_equals_scalar_warmup(self, config):
        """Shards warm on the predictor's batch kernel: the checkpoint is
        the scalar warm-up's, bit for bit."""
        registry = standard_registry()
        pool = WarmSnapshotPool(registry, warmup_branches=1_024, branches=3_000)
        shard = pool.acquire(config, "SERV1")
        trace = TraceSpec.suite("SERV1", 3_000).resolve()
        scalar = simulate(registry[config](), trace, stop_after=1_024).checkpoint
        assert shard.checkpoint.position == scalar.position == 1_024
        assert shard.checkpoint.mispredictions == scalar.mispredictions
        assert shard.state_hash() == scalar.predictor_state.hash()

    def test_concurrent_cold_acquire_hydrates_once(self):
        # First-touch hydration runs outside the pool lock; the per-key
        # in-flight event must still collapse a stampede of cold
        # acquires into ONE warmup simulation, and the resulting state
        # must be bit-identical to an uncontended sequential acquire.
        sequential = WarmSnapshotPool(
            toy_registry(), warmup_branches=200, branches=600
        )
        expected = sequential.acquire("bimodal", "FP1").state_hash()

        pool = WarmSnapshotPool(toy_registry(), warmup_branches=200, branches=600)
        results = [None] * 8
        errors = []
        barrier = threading.Barrier(len(results))

        def grab(i):
            try:
                barrier.wait()
                results[i] = pool.acquire("bimodal", "FP1")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=grab, args=(i,)) for i in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert all(shard is results[0] for shard in results)
        assert results[0].state_hash() == expected
        assert pool.stats()["hydrations"] == 1


# --------------------------------------------------------------------------
# auth handshake (serving + campaign coordinator)
# --------------------------------------------------------------------------


class TestAuth:
    def test_server_rejects_wrong_token(self, server_factory):
        events = []
        server = server_factory(
            registry=toy_registry(),
            auth_token="hunter2",
            telemetry=Telemetry(subscribers=(events.append,)),
        )
        with pytest.raises(AuthError):
            PredictClient(server.address, client_id="intruder", auth_token="wrong")
        with pytest.raises(AuthError):
            PredictClient(server.address, client_id="notoken")
        rejects = events_of(events, "auth_reject")
        assert {e["peer"] for e in rejects} == {"intruder", "notoken"}

    def test_server_accepts_matching_token(self, server_factory):
        server = server_factory(registry=toy_registry(), auth_token="hunter2")
        trace = build_trace("FP1", 300)
        with PredictClient(server.address, auth_token="hunter2") as client:
            summary = client.stream_trace("bimodal", "FP1", trace)
        assert summary["events"] == len(trace)

    def test_coordinator_requires_token(self, tmp_path):
        registry = toy_registry()
        plan = CampaignPlan(
            factories={"bimodal": registry["bimodal"]},
            traces=[TraceSpec.suite("FP1", 300)],
            store_dir=tmp_path / "dist",
        )
        events = []
        coordinator = Coordinator(
            plan,
            registry_ref=REGISTRY_REF,
            auth_token="lease-secret",
            linger_s=5.0,
            telemetry=Telemetry(subscribers=(events.append,)),
        )
        thread = coordinator.serve_background()
        with pytest.raises(AuthError):
            run_executor(
                coordinator.address, registry_ref=REGISTRY_REF,
                executor_id="bad", auth_token="wrong",
            )
        assert events_of(events, "auth_reject")
        stats = run_executor(
            coordinator.address, registry_ref=REGISTRY_REF,
            executor_id="good", auth_token="lease-secret",
        )
        thread.join(timeout=30)
        assert stats.completed == 1
        serial = run_plan(
            CampaignPlan(
                factories={"bimodal": registry["bimodal"]},
                traces=[TraceSpec.suite("FP1", 300)],
                store_dir=tmp_path / "serial",
            )
        )
        assert coordinator.results == serial


# --------------------------------------------------------------------------
# server failure handling
# --------------------------------------------------------------------------


class TestServerFailures:
    def test_session_required_fields_policed(self, server_factory):
        server = server_factory(registry=toy_registry())
        with PredictClient(server.address) as client:
            with pytest.raises(ServeError, match="unknown predictor"):
                client.open_session("nope", "FP1")
            with pytest.raises(ServeError, match="unknown session"):
                client.send_events("S999", [4], [True])
            with pytest.raises(ServeError, match="unknown session"):
                client.close_session("S999")
            opened = client.open_session("bimodal", "FP1")
            reply = client._request(
                {"type": "events", "session": opened["session"],
                 "pcs": [4, 8], "outcomes": [1]},
            )
            assert reply["type"] == "error"
            assert "differ in length" in reply["error"]

    @pytest.mark.parametrize(
        "pcs,outcomes,culprit",
        [
            (["x"], [1], "pcs[0]"),
            ([1.5], [1], "pcs[0]"),
            ([True], [1], "pcs[0]"),
            ([-4], [1], "pcs[0]"),
            ([2**64], [1], "pcs[0]"),
            ([4, None], [1, 0], "pcs[1]"),
            ([4], ["no"], "outcomes[0]"),
            ([4], [2], "outcomes[0]"),
            ([4], [1.0], "outcomes[0]"),
            ([4, 8], [True, None], "outcomes[1]"),
        ],
    )
    def test_hostile_events_refused_before_the_predictor(
        self, server_factory, pcs, outcomes, culprit
    ):
        # A typed error comes back, the session keeps working as if the
        # bad batch never arrived, and the handler thread exits once the
        # client leaves.
        def handlers():
            return {t for t in threading.enumerate() if "_serve_client" in t.name}

        server = server_factory(registry=toy_registry())
        before = handlers()
        trace = build_trace("FP1", 40)
        with PredictClient(server.address) as client:
            session = client.open_session("gshare", "FP1")["session"]
            reply = client._request(
                {"type": "events", "session": session, "pcs": pcs, "outcomes": outcomes}
            )
            assert reply["type"] == "error"
            assert reply["error"].startswith(culprit)
            predictions, _ = client.send_events(session, trace.pcs, trace.outcomes)
            assert len(predictions) == len(trace)
            summary = client.close_session(session)
        offline_predictor = toy_registry()["gshare"]()
        offline = simulate(offline_predictor, trace)
        assert summary["mispredictions"] == offline.mispredictions
        assert summary["state_hash"] == offline_predictor.state_hash()
        deadline = time.monotonic() + 10
        while handlers() - before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not handlers() - before

    def test_events_before_hello_refused(self, server_factory):
        server = server_factory(registry=toy_registry())
        sock = socket.create_connection(server.address)
        try:
            send_message(sock, {"type": "session_open", "client": "x",
                                "config": "bimodal", "workload": "FP1"})
            reply = recv_message(sock)
            assert reply["type"] == "error"
            assert "serve_hello" in reply["error"]
        finally:
            sock.close()

    @pytest.mark.parametrize("field", ["warmup", "branches"])
    def test_bad_warm_fields_get_typed_errors(self, tmp_path, server_factory, field):
        # Each field must be absent, null or a positive int (not a bool):
        # anything else is refused by name before the pool is touched,
        # and the connection keeps working.
        pool = WarmSnapshotPool(
            toy_registry(), state_dir=str(tmp_path), warmup_branches=100, branches=400
        )
        server = server_factory(registry=toy_registry(), pool=pool)
        with PredictClient(server.address) as client:
            for value in ([1], "x", -5, 0, True):
                reply = client._request(
                    {"type": "session_open", "client": "x", "config": "bimodal",
                     "workload": "FP1", "warm": True, field: value}
                )
                assert reply["type"] == "error", value
                assert reply["error"].startswith(f"{field} = "), reply
                assert "positive int" in reply["error"]
            opened = client.open_session("bimodal", "FP1", warm=True, branches=400, warmup=100)
            assert opened["position"] == 100
        assert pool.stats()["hydrations"] == 1

    def test_warm_session_without_pool_is_an_error(self, server_factory):
        server = server_factory(registry=toy_registry(), pool=None)
        with PredictClient(server.address) as client:
            with pytest.raises(ServeError, match="no warm pool"):
                client.open_session("bimodal", "FP1", warm=True)

    def test_sigint_stops_server_started_with_sigint_ignored(self, tmp_path):
        # A background job inherits SIG_IGN for SIGINT; the server must
        # still stop cleanly on it instead of waiting to be killed.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        telemetry = tmp_path / "serve.jsonl"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-predict", "--port", "0",
             "--no-pool", "--telemetry", str(telemetry)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            line = process.stdout.readline()
            assert "serving predictions on" in line, line
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=10) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)
        assert "serve_stop" in [event["event"] for event in read_events(telemetry)]

    def test_killed_server_surfaces_as_client_error(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-predict", "--port", "0",
             "--no-pool"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"on ([\d.]+):(\d+)", line)
            assert match, f"no address banner in {line!r}"
            address = (match.group(1), int(match.group(2)))
            client = PredictClient(address, client_id="doomed")
            opened = client.open_session("bimodal", "FP1")
            trace = build_trace("FP1", 400)
            client.send_events(opened["session"], trace.pcs[:100],
                               trace.outcomes[:100])
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
            with pytest.raises((ServeError, ProtocolError, ConnectionError, OSError)):
                for _ in range(3):  # first send may land in dead buffers
                    client.send_events(opened["session"], trace.pcs[100:200],
                                       trace.outcomes[100:200])
                    time.sleep(0.1)
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)


# --------------------------------------------------------------------------
# protocol state machine at runtime
# --------------------------------------------------------------------------


class TestServingFsm:
    def hello(self):
        return {
            "type": "serve_hello",
            "client": "fsm-test",
            "protocol": PROTOCOL_VERSION,
        }

    def test_duplicate_serve_hello_refused(self, server_factory):
        server = server_factory(registry=toy_registry())
        sock = socket.create_connection(server.address)
        try:
            send_message(sock, self.hello())
            assert recv_message(sock)["type"] == "serve_welcome"
            send_message(sock, self.hello())
            reply = recv_message(sock)
            assert reply["type"] == "error"
            assert "duplicate serve_hello" in reply["error"]
            # The connection survives and is still in the greeted state.
            send_message(sock, {"type": "session_open", "client": "fsm-test",
                                "config": "bimodal", "workload": "FP1"})
            assert recv_message(sock)["type"] == "session"
        finally:
            sock.close()

    def test_interleaved_sessions_survive_one_close(self, server_factory):
        # The serving machine models one session lifecycle; a
        # connection multiplexing two sessions must stay "open" while
        # either remains, so events on the survivor still flow.
        server = server_factory(registry=toy_registry())
        trace = build_trace("FP1", 60)
        with PredictClient(server.address) as client:
            first = client.open_session("bimodal", "FP1")["session"]
            second = client.open_session("gshare", "FP1")["session"]
            client.close_session(first)
            predictions, _ = client.send_events(
                second, trace.pcs[:20], trace.outcomes[:20]
            )
            assert len(predictions) == 20
            summary = client.close_session(second)
            assert summary["events"] == 20


# --------------------------------------------------------------------------
# load generation
# --------------------------------------------------------------------------


class TestLoadgen:
    def test_percentile_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 50) == 2.0
        assert percentile(samples, 95) == 4.0
        assert percentile(samples, 99) == 4.0
        assert percentile([], 50) == 0.0
        assert percentile([7.5], 99) == 7.5

    def test_profiles_are_wellformed(self):
        assert set(PROFILES) == {"steady", "wild", "mixed"}
        registry = standard_registry()
        for profile in PROFILES.values():
            assert all(config in registry for config in profile.configs)
            for name in profile.workloads:
                assert name in SUITE_NAMES or name in WILD_NAMES

    def test_smoke_concurrent_sessions(self, server_factory):
        events = []
        server = server_factory(registry=standard_registry())
        report = run_load(
            server.address,
            profile="mixed",
            sessions=16,
            session_events=300,
            batch=64,
            telemetry=Telemetry(subscribers=(events.append,)),
        )
        assert report.errors == 0, report.error_messages
        assert report.sessions == 16
        assert report.events > 0
        assert report.throughput_eps > 0
        assert 0 <= report.p50_ms <= report.p95_ms <= report.p99_ms
        assert events_of(events, "loadgen_report")
        # Identical (config, workload) sessions must land identical bits.
        by_assignment = {}
        for summary in report.summaries:
            key = (summary["config"], summary["workload"])
            by_assignment.setdefault(key, set()).add(summary["state_hash"])
        assert all(len(hashes) == 1 for hashes in by_assignment.values())
