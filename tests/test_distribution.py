"""Fault-injection tests for the multi-host campaign distribution layer.

Covers the acceptance guarantees of ``docs/distribution.md``: two
localhost executors draining one manifest produce bit-identical
result-store contents to a serial ``jobs=1`` run — including after an
executor is SIGKILLed mid-task (its lease returns to the queue and the
re-claimant resumes from the shared StateStore cut), after a client
drops the coordinator socket mid-claim, and after a lease expires while
its task is still running.  Chaos fixtures corrupt store entries and
state checkpoints under a live distributed campaign and assert the
purge telemetry fires while the campaign still completes.  A hypothesis
property test pins the manifest v2→v3 write→read→write byte identity,
and a subprocess smoke test drives the real ``repro campaign serve`` /
``repro campaign work`` CLI over loopback.

Everything here is marked ``distributed`` (wired into tier-1; deselect
with ``-m 'not distributed'`` on boxes without fork or loopback).
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.orchestration import (
    CampaignError,
    CampaignManifest,
    CampaignPlan,
    StateStore,
    Telemetry,
    TraceSpec,
    run_plan,
)
from repro.orchestration.distserver import Coordinator
from repro.orchestration.engine import CampaignBooks, build_tasks
from repro.orchestration.manifest import MANIFEST_VERSION
from repro.orchestration.remote import (
    MESSAGE_TYPES,
    PROTOCOL_FSMS,
    PROTOCOL_VERSION,
    ProtocolError,
    SessionFsm,
    VersionSkewError,
    connect,
    decode_task,
    encode_task,
    recv_message,
    run_executor,
    send_message,
    validate_message,
)
from repro.orchestration.store import encode_result
from repro.orchestration.tasks import error_summary
from repro.predictors import Bimodal, GShare
from repro.sim import simulate
from repro.workloads import build_trace

pytestmark = pytest.mark.distributed

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="executor processes rely on the fork start method",
)

REGISTRY_REF = "tests.test_distribution:toy_registry"


class SlowBimodal(Bimodal):
    """Bimodal with a per-branch delay: a task long enough to fault."""

    name = "slow-bimodal"

    def predict(self, pc: int) -> bool:
        time.sleep(0.004)
        return super().predict(pc)


def toy_registry():
    """Registry executors resolve by ref; module-level, host-portable."""
    return {"bimodal": Bimodal, "gshare": GShare, "slow": SlowBimodal}


class ExplodingBimodal(Bimodal):
    """A predictor whose every run raises: a task that always fails."""

    name = "exploding-bimodal"

    def predict(self, pc: int) -> bool:
        raise RuntimeError("predictor exploded")


def parity_registry():
    """Registry for the settle-parity grid (one always-failing config)."""
    return {"bimodal": Bimodal, "exploding": ExplodingBimodal}


def dist_plan(store, configs=("bimodal", "gshare"), branches=400, **kwargs):
    registry = toy_registry()
    kwargs.setdefault("traces", [
        TraceSpec.suite("FP1", branches),
        TraceSpec.suite("INT1", branches),
    ])
    return CampaignPlan(
        factories={name: registry[name] for name in configs},
        store_dir=store,
        manifest_path=store / "manifest.json" if store is not None else None,
        **kwargs,
    )


def store_snapshot(root: Path) -> dict[str, bytes]:
    """Result-store contents by file name (the bit-identity criterion)."""
    return {
        path.name: path.read_bytes()
        for path in Path(root).glob("*.json")
        if "manifest" not in path.name  # attribution differs, results must not
    }


def _executor_main(address, executor_id, renew, poll):
    run_executor(
        address,
        registry_ref=REGISTRY_REF,
        executor_id=executor_id,
        renew=renew,
        poll_interval=poll,
    )


def start_executor(address, executor_id, renew=True, poll=0.05):
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(
        target=_executor_main,
        args=(address, executor_id, renew, poll),
        daemon=True,
    )
    process.start()
    return process


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def events_of(events, kind):
    return [e for e in events if e["event"] == kind]


class TestProtocol:
    def test_framing_roundtrip(self):
        import socket

        a, b = socket.socketpair()
        try:
            message = {"type": "hello", "executor": "x", "n": 7}
            send_message(a, message)
            assert recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_corrupt_length_prefix_rejected(self):
        import socket

        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff" + b"junk")
            with pytest.raises(ProtocolError, match="frame length"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_untyped_frame_rejected(self):
        import socket

        a, b = socket.socketpair()
        try:
            body = json.dumps([1, 2, 3]).encode()
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(ProtocolError, match="typed"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_task_wire_roundtrip(self):
        task = build_tasks(dist_plan(None, configs=("bimodal",)))[0]
        decoded = decode_task(encode_task(task), toy_registry())
        assert decoded.fingerprint == task.fingerprint
        assert decoded.config_name == task.config_name
        assert decoded.trace == task.trace
        assert decoded.factory is Bimodal

    def test_tampered_fingerprint_refused(self):
        task = build_tasks(dist_plan(None, configs=("bimodal",)))[0]
        wire = encode_task(task)
        wire["fingerprint"] = "0" * 64
        with pytest.raises(VersionSkewError, match="fingerprint mismatch"):
            decode_task(wire, toy_registry())

    def test_unknown_config_refused(self):
        task = build_tasks(dist_plan(None, configs=("bimodal",)))[0]
        wire = encode_task(task)
        wire["config"] = "ghost"
        with pytest.raises(VersionSkewError, match="registry"):
            decode_task(wire, toy_registry())

    def test_fsm_machines_use_registered_message_types(self):
        # Every message in an FSM alphabet must be a declared protocol
        # message, and every transition must land on a declared state.
        for machine in PROTOCOL_FSMS.values():
            for transitions in machine.values():
                for kind, target in transitions.items():
                    assert kind in MESSAGE_TYPES
                    assert target in machine

    def test_session_fsm_walks_campaign_machine(self):
        fsm = SessionFsm("campaign")
        for kind in ("hello", "claim", "renew", "result", "claim", "bye"):
            fsm.advance(kind)
        assert fsm.state == "end"

    def test_session_fsm_rejects_out_of_order(self):
        fsm = SessionFsm("campaign")
        with pytest.raises(ProtocolError, match="expected hello"):
            fsm.advance("claim")
        assert fsm.state == "start"

    def test_replies_outside_the_alphabet_are_ignored(self):
        fsm = SessionFsm("campaign")
        assert fsm.allows("welcome")
        fsm.advance("welcome")  # replies carry no ordering of their own
        assert fsm.state == "start"

    def test_unknown_machine_rejected(self):
        with pytest.raises(KeyError, match="unknown protocol FSM"):
            SessionFsm("nope")

    def test_validate_message_advances_fsm(self):
        fsm = SessionFsm("campaign")
        hello = {"type": "hello", "executor": "x", "protocol": PROTOCOL_VERSION}
        validate_message(hello, fsm)
        assert fsm.state == "joined"
        with pytest.raises(ProtocolError, match="out of order"):
            validate_message(hello, fsm)

    def test_claim_before_hello_refused(self, tmp_path):
        # The coordinator's connection handler runs the declared
        # campaign machine: nothing but hello is admitted from start.
        coordinator = Coordinator(
            dist_plan(tmp_path / "dist", configs=("bimodal",)),
            registry_ref=REGISTRY_REF,
        )
        coordinator._listener.close()
        import socket
        import threading

        server_end, client_end = socket.socketpair()
        handler = threading.Thread(
            target=coordinator._serve_client, args=(server_end,), daemon=True
        )
        handler.start()
        try:
            send_message(client_end, {"type": "claim", "executor": "eager"})
            reply = recv_message(client_end)
            assert reply["type"] == "error"
            assert "hello first" in reply["error"]
            send_message(
                client_end,
                {
                    "type": "hello",
                    "executor": "eager",
                    "pid": 0,
                    "host": "h",
                    "protocol": PROTOCOL_VERSION,
                },
            )
            assert recv_message(client_end)["type"] == "welcome"
            send_message(client_end, {"type": "bye", "executor": "eager"})
            assert recv_message(client_end)["type"] == "ok"
        finally:
            client_end.close()
            handler.join(timeout=10)
        assert not handler.is_alive()

    def test_inline_trace_not_distributable(self):
        from repro.trace.records import Trace, TraceMetadata

        meta = TraceMetadata(name="mem", category="SPEC", instruction_count=10)
        trace = Trace(meta, [4, 8], [True, False])
        with pytest.raises(ValueError, match="inline"):
            TraceSpec.inline(trace).to_wire()
        with pytest.raises(ValueError, match="inline"):
            Coordinator(
                CampaignPlan(factories={"b": Bimodal}, traces=[trace]),
                registry_ref=REGISTRY_REF,
            )

    def test_warm_share_not_distributable(self, tmp_path):
        plan = CampaignPlan(
            factories={"a": GShare, "b": GShare},
            traces=[TraceSpec.suite("FP1", 200)],
            warmup_branches=100,
            warm_share={"b": "a"},
            state_dir=tmp_path,
        )
        with pytest.raises(ValueError, match="warm_share"):
            Coordinator(plan, registry_ref=REGISTRY_REF)


_record = st.fixed_dictionaries(
    {
        "config": st.sampled_from(["bimodal", "gshare", "bf-neural"]),
        "trace": st.sampled_from(["FP1", "INT1", "SERV3"]),
        "status": st.sampled_from(["pending", "done", "failed"]),
        "attempts": st.integers(min_value=0, max_value=5),
        "error": st.one_of(st.none(), st.sampled_from(["boom", "lease expired"])),
        "resumed_from": st.one_of(
            st.none(), st.integers(min_value=0, max_value=5_000_000)
        ),
        "checkpoints": st.integers(min_value=0, max_value=50),
        "executor": st.one_of(st.none(), st.sampled_from(["ex-a", "host-1-99"])),
    }
)


class TestManifestRoundTrip:
    """Manifest v2→v3 upgrade then write→read→write is byte-identical."""

    @given(records=st.lists(_record, min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_write_read_write_byte_identical(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.json"
            manifest = CampaignManifest(path=path, campaign_id="cid")
            for position, item in enumerate(records):
                from repro.orchestration.manifest import TaskRecord

                manifest.records[f"fp{position:02d}"] = TaskRecord(**item)
            manifest.save()
            first = path.read_bytes()
            reloaded = CampaignManifest.load(path)
            assert reloaded is not None
            reloaded.save()
            assert path.read_bytes() == first

    @given(records=st.lists(_record, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_v2_upgrade_then_stable(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.json"
            # A v2-era manifest never wrote the executor field.
            v2_tasks = {}
            for position, item in enumerate(records):
                payload = {
                    "config": item["config"],
                    "trace": item["trace"],
                    "status": item["status"],
                    "attempts": item["attempts"],
                }
                if item["error"] is not None:
                    payload["error"] = item["error"]
                if item["resumed_from"] is not None:
                    payload["resumed_from"] = item["resumed_from"]
                if item["checkpoints"]:
                    payload["checkpoints"] = item["checkpoints"]
                v2_tasks[f"fp{position:02d}"] = payload
            path.write_text(
                json.dumps(
                    {"version": 2, "campaign_id": "cid", "tasks": v2_tasks},
                    indent=2,
                )
                + "\n"
            )
            upgraded = CampaignManifest.load(path)
            assert upgraded is not None
            assert all(r.executor is None for r in upgraded.records.values())
            upgraded.save()
            first = path.read_bytes()
            assert json.loads(first)["version"] == MANIFEST_VERSION
            reloaded = CampaignManifest.load(path)
            reloaded.save()
            assert path.read_bytes() == first


@needs_fork
class TestDistributedCampaign:
    def test_two_executors_bit_identical_to_serial(self, tmp_path):
        serial = run_plan(dist_plan(tmp_path / "serial"))

        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        coordinator = Coordinator(
            dist_plan(tmp_path / "dist"),
            registry_ref=REGISTRY_REF,
            lease_ttl=10.0,
            linger_s=3.0,
            telemetry=telemetry,
        )
        thread = coordinator.serve_background()
        workers = [
            start_executor(coordinator.address, f"ex{i}") for i in range(2)
        ]
        thread.join(timeout=60)
        for worker in workers:
            worker.join(timeout=10)
        assert coordinator.results == serial
        assert store_snapshot(tmp_path / "dist") == store_snapshot(
            tmp_path / "serial"
        )
        assert len(events_of(events, "lease_grant")) == 4
        assert {e["executor"] for e in events_of(events, "executor_join")} == {
            "ex0",
            "ex1",
        }
        manifest = CampaignManifest.load(tmp_path / "dist" / "manifest.json")
        assert all(
            record.status == "done" and record.executor in ("ex0", "ex1")
            for record in manifest.records.values()
        )

    def test_second_serve_is_fully_cached(self, tmp_path):
        first = Coordinator(
            dist_plan(tmp_path / "dist"),
            registry_ref=REGISTRY_REF,
            linger_s=2.0,
        )
        thread = first.serve_background()
        worker = start_executor(first.address, "ex0")
        thread.join(timeout=60)
        worker.join(timeout=10)

        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        second = Coordinator(
            dist_plan(tmp_path / "dist"),
            registry_ref=REGISTRY_REF,
            telemetry=telemetry,
        )
        results = second.serve()  # drains instantly, no executor needed
        assert results == first.results
        assert len(events_of(events, "cache_hit")) == 4
        assert not events_of(events, "lease_grant")


@needs_fork
class TestFaultInjection:
    def slow_plan(self, store, **kwargs):
        kwargs.setdefault("max_retries", 1)
        return dist_plan(
            store,
            configs=("slow",),
            traces=[TraceSpec.suite("FP1", 400)],
            state_dir=store / "state",
            checkpoint_every=50,
            **kwargs,
        )

    def test_sigkill_executor_mid_task_resumes(self, tmp_path):
        serial = run_plan(
            CampaignPlan(
                factories={"slow": SlowBimodal},
                traces=[TraceSpec.suite("FP1", 400)],
                store_dir=tmp_path / "serial",
            )
        )

        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        coordinator = Coordinator(
            self.slow_plan(tmp_path / "dist"),
            registry_ref=REGISTRY_REF,
            lease_ttl=30.0,
            linger_s=3.0,
            telemetry=telemetry,
        )
        thread = coordinator.serve_background()
        victim = start_executor(coordinator.address, "victim")
        state_dir = tmp_path / "dist" / "state"
        assert wait_for(
            lambda: events_of(events, "lease_grant")
            and any(state_dir.glob("*.state.json"))
        ), "victim never claimed or checkpointed"
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert wait_for(lambda: events_of(events, "executor_dead")), (
            "broken socket not detected"
        )
        assert events_of(events, "lease_expire")

        rescuer = start_executor(coordinator.address, "rescuer")
        thread.join(timeout=60)
        rescuer.join(timeout=10)

        resume = events_of(events, "task_resume")
        assert resume and resume[0]["position"] >= 50
        assert resume[0]["executor"] == "rescuer"
        assert coordinator.results == serial
        assert store_snapshot(tmp_path / "dist") == store_snapshot(
            tmp_path / "serial"
        )
        record = next(
            iter(
                CampaignManifest.load(
                    tmp_path / "dist" / "manifest.json"
                ).records.values()
            )
        )
        assert record.status == "done"
        assert record.executor == "rescuer"
        assert record.resumed_from is not None and record.resumed_from >= 50
        assert record.attempts == 2

    def test_socket_drop_mid_claim_releases_lease(self, tmp_path):
        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        coordinator = Coordinator(
            dist_plan(tmp_path / "dist", configs=("bimodal",)),
            registry_ref=REGISTRY_REF,
            lease_ttl=30.0,
            linger_s=3.0,
            telemetry=telemetry,
        )
        thread = coordinator.serve_background()

        # A ghost client claims a lease, then vanishes without a result:
        # the coordinator must detect the dropped socket, expire the
        # lease immediately and hand the task to a live executor.
        sock = connect(coordinator.address)
        send_message(
            sock,
            {
                "type": "hello",
                "executor": "ghost",
                "pid": 0,
                "host": "nowhere",
                "protocol": PROTOCOL_VERSION,
            },
        )
        assert recv_message(sock)["type"] == "welcome"
        send_message(sock, {"type": "claim", "executor": "ghost"})
        lease = recv_message(sock)
        assert lease["type"] == "lease"
        ghost_index = lease["task"]["index"]
        sock.close()
        assert wait_for(
            lambda: any(
                e["executor"] == "ghost"
                for e in events_of(events, "executor_dead")
            )
        )
        assert any(
            e["index"] == ghost_index for e in events_of(events, "lease_expire")
        )

        worker = start_executor(coordinator.address, "real")
        thread.join(timeout=60)
        worker.join(timeout=10)
        grants = [
            e for e in events_of(events, "lease_grant") if e["index"] == ghost_index
        ]
        assert [g["executor"] for g in grants] == ["ghost", "real"]
        serial = run_plan(dist_plan(tmp_path / "serial", configs=("bimodal",)))
        assert coordinator.results == serial
        assert store_snapshot(tmp_path / "dist") == store_snapshot(
            tmp_path / "serial"
        )

    def test_lease_expires_while_task_still_running(self, tmp_path):
        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        coordinator = Coordinator(
            self.slow_plan(tmp_path / "dist", max_retries=2),
            registry_ref=REGISTRY_REF,
            lease_ttl=0.5,
            linger_s=3.0,
            telemetry=telemetry,
        )
        thread = coordinator.serve_background()
        # The laggard never renews its lease, so the ttl elapses while
        # the task is still simulating; the renewer-enabled backup picks
        # up the re-queued lease and both eventually report identical
        # bits — first result in wins, the other is declared stale.
        laggard = start_executor(coordinator.address, "laggard", renew=False)
        assert wait_for(lambda: events_of(events, "lease_grant"))
        assert wait_for(lambda: events_of(events, "lease_expire"), timeout=10)
        backup = start_executor(coordinator.address, "backup")
        thread.join(timeout=60)
        laggard.join(timeout=30)
        backup.join(timeout=30)

        serial = run_plan(
            CampaignPlan(
                factories={"slow": SlowBimodal},
                traces=[TraceSpec.suite("FP1", 400)],
                store_dir=tmp_path / "serial",
            )
        )
        assert coordinator.results == serial
        assert store_snapshot(tmp_path / "dist") == store_snapshot(
            tmp_path / "serial"
        )
        grants = events_of(events, "lease_grant")
        assert len(grants) >= 2 and grants[0]["executor"] == "laggard"


@needs_fork
class TestChaosStorage:
    def test_corrupt_store_entry_and_checkpoint_purged(self, tmp_path):
        """Truncate a store entry and a ``.state.json`` cut under a live
        distributed campaign: both purges surface as ``cache_corrupt``
        telemetry and the campaign still completes with correct bits."""
        store = tmp_path / "dist"
        plan = dist_plan(
            store,
            configs=("bimodal",),
            traces=[TraceSpec.suite("FP1", 400)],
            state_dir=store / "state",
            checkpoint_every=100,
        )
        task = build_tasks(plan)[0]

        # Chaos fixture 1: a truncated result-store entry at the exact
        # fingerprint the cache pass will consult.
        store.mkdir(parents=True)
        (store / f"{task.fingerprint}.json").write_text('{"trace_name": "FP1", ')

        # Chaos fixture 2: a real mid-trace checkpoint, then truncated —
        # the executor's resume probe must purge it and run from cold.
        state_store = StateStore(store / "state")
        cut = simulate(
            Bimodal(), build_trace("FP1", 400), stop_after=100
        ).checkpoint
        cut_path = state_store.save(task.fingerprint, cut)
        cut_path.write_text(cut_path.read_text()[:40])

        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        coordinator = Coordinator(
            plan,
            registry_ref=REGISTRY_REF,
            linger_s=3.0,
            telemetry=telemetry,
        )
        thread = coordinator.serve_background()
        worker = start_executor(coordinator.address, "ex0")
        thread.join(timeout=60)
        worker.join(timeout=10)

        corrupt = events_of(events, "cache_corrupt")
        paths = {event["path"] for event in corrupt}
        assert str(store / f"{task.fingerprint}.json") in paths
        assert str(cut_path) in paths
        assert not events_of(events, "task_resume")  # ran from cold

        serial = run_plan(
            dist_plan(
                tmp_path / "serial",
                configs=("bimodal",),
                traces=[TraceSpec.suite("FP1", 400)],
            )
        )
        assert coordinator.results == serial
        assert store_snapshot(store) == store_snapshot(tmp_path / "serial")


@needs_fork
class TestCliSmoke:
    def test_serve_and_two_workers_match_jobs_1(self, tmp_path):
        """``repro campaign serve`` + two ``repro campaign work``
        subprocesses over loopback reproduce the ``--jobs 1`` store."""
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        grid = [
            "FP1", "INT1",
            "--predictors", "bimodal", "gshare",
            "--branches", "300",
            "--quiet",
        ]
        workers = []
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "serve", *grid,
             "--cache-dir", str(tmp_path / "dist"),
             "--telemetry", str(tmp_path / "events.jsonl"),
             "--lease-ttl", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=repo_root,
            text=True,
        )
        try:
            banner = serve.stdout.readline()
            assert "serving 4 tasks on" in banner, banner
            address = banner.strip().rsplit(" ", 1)[-1]
            workers.extend(
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "campaign", "work",
                     "--connect", address, "--executor-id", f"smoke{i}",
                     "--poll", "0.05", "--quiet"],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    env=env,
                    cwd=repo_root,
                    text=True,
                )
                for i in range(2)
            )
            worker_out = [w.communicate(timeout=120)[0] for w in workers]
            serve_out = serve.communicate(timeout=120)[0]
        finally:
            for proc in [serve, *workers]:
                if proc.poll() is None:
                    proc.kill()
        assert serve.returncode == 0, serve_out
        assert all(w.returncode == 0 for w in workers), worker_out
        assert "0 failed" in serve_out

        code = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "run", *grid,
             "--cache-dir", str(tmp_path / "serial"), "--jobs", "1"],
            env=env,
            cwd=repo_root,
            capture_output=True,
        ).returncode
        assert code == 0
        assert store_snapshot(tmp_path / "dist") == store_snapshot(
            tmp_path / "serial"
        )

        from repro.orchestration import read_events

        kinds = {e["event"] for e in read_events(tmp_path / "events.jsonl")}
        assert {"executor_join", "lease_grant", "task_finish",
                "campaign_finish"} <= kinds


def ghost_session(address, executor="ghost"):
    """A raw protocol session that has said hello."""
    sock = connect(address)
    send_message(
        sock,
        {
            "type": "hello",
            "executor": executor,
            "pid": 0,
            "host": "nowhere",
            "protocol": PROTOCOL_VERSION,
        },
    )
    assert recv_message(sock)["type"] == "welcome"
    return sock


@needs_fork
class TestMalformedResults:
    """A ``result`` frame that is malformed or does not match its lease
    is refused with an ``error`` reply; the lease stays, expires and the
    task is re-leased, so the campaign still drains to the serial bits."""

    @pytest.mark.parametrize(
        "tamper",
        [
            pytest.param(lambda index: {"index": 1 - index}, id="wrong-index"),
            pytest.param(lambda index: {"executor": "impostor"}, id="wrong-executor"),
            pytest.param(lambda index: {"meta": [1]}, id="meta-not-object"),
            pytest.param(lambda index: {"elapsed_s": "abc"}, id="elapsed-not-number"),
            pytest.param(lambda index: {"index": "0"}, id="index-not-int"),
        ],
    )
    def test_refused_and_lease_kept(self, tmp_path, tamper):
        plan = dist_plan(tmp_path / "dist", configs=("bimodal",))
        events = []
        coordinator = Coordinator(
            plan,
            registry_ref=REGISTRY_REF,
            lease_ttl=0.5,
            linger_s=3.0,
            telemetry=Telemetry(subscribers=(events.append,)),
        )
        thread = coordinator.serve_background()
        sock = ghost_session(coordinator.address)
        try:
            send_message(sock, {"type": "claim", "executor": "ghost"})
            lease = recv_message(sock)
            assert lease["type"] == "lease"
            index = lease["task"]["index"]
            task = build_tasks(plan)[index]
            frame = {
                "type": "result",
                "executor": "ghost",
                "lease_id": lease["lease_id"],
                "index": index,
                "ok": True,
                "elapsed_s": 0.1,
                "meta": {"resumed_from": None, "checkpoints": 0, "corrupt": []},
                "payload": encode_result(simulate(Bimodal(), task.trace.resolve())),
            }
            frame.update(tamper(index))
            send_message(sock, frame)
            reply = recv_message(sock)
            assert reply["type"] == "error", reply
            # The lease was kept: it expires on its own ttl...
            assert wait_for(
                lambda: any(
                    e["lease_id"] == lease["lease_id"]
                    for e in events_of(events, "lease_expire")
                ),
                timeout=10,
            )
            # ...and the handler thread survived the frame.
            send_message(sock, {"type": "bye", "executor": "ghost"})
            assert recv_message(sock)["type"] == "ok"
        finally:
            sock.close()

        worker = start_executor(coordinator.address, "real")
        thread.join(timeout=60)
        worker.join(timeout=10)
        assert not thread.is_alive()
        grants: dict[int, list[str]] = {}
        for event in events_of(events, "lease_grant"):
            grants.setdefault(event["index"], []).append(event["executor"])
        assert grants == {index: ["ghost", "real"], 1 - index: ["real"]}
        serial = run_plan(dist_plan(tmp_path / "serial", configs=("bimodal",)))
        assert coordinator.results == serial
        assert store_snapshot(tmp_path / "dist") == store_snapshot(
            tmp_path / "serial"
        )

    def test_blank_error_fails_with_campaign_error(self, tmp_path):
        """An executor reporting a whitespace-only error ends the campaign
        in ``CampaignError`` (summary ``unknown``), not ``IndexError``."""
        plan = dist_plan(
            tmp_path / "dist",
            configs=("bimodal",),
            traces=[TraceSpec.suite("FP1", 400)],
            max_retries=0,
        )
        coordinator = Coordinator(plan, registry_ref=REGISTRY_REF, linger_s=3.0)
        raised = []

        def serve():
            try:
                coordinator.serve()
            except Exception as exc:  # the assertion below names it
                raised.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        sock = ghost_session(coordinator.address)
        try:
            send_message(sock, {"type": "claim", "executor": "ghost"})
            lease = recv_message(sock)
            send_message(
                sock,
                {
                    "type": "result",
                    "executor": "ghost",
                    "lease_id": lease["lease_id"],
                    "index": lease["task"]["index"],
                    "ok": False,
                    "error": "  \n ",
                },
            )
            assert recv_message(sock)["type"] == "ok"
            send_message(sock, {"type": "bye", "executor": "ghost"})
            assert recv_message(sock)["type"] == "ok"
        finally:
            sock.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(raised) == 1 and isinstance(raised[0], CampaignError), raised
        assert str(raised[0]).endswith(": unknown")
        manifest = CampaignManifest.load(tmp_path / "dist" / "manifest.json")
        [record] = manifest.records.values()
        assert (record.status, record.error, record.executor) == (
            "failed",
            "unknown",
            "ghost",
        )


#: Settle events that belong to one task attempt, and the fields that
#: legitimately differ between execution paths.
SETTLE_KINDS = ("task_finish", "task_failed", "task_retry", "task_resume", "warm_restore")
PATH_FIELDS = {"ts", "elapsed_s", "worker", "executor"}


@needs_fork
class TestSettleParity:
    """The serial loop, the process pool and the coordinator settle
    every attempt through one outcome builder and one set of books."""

    def run_three_ways(self, tmp_path, monkeypatch):
        persisted: dict[str, list] = {}
        path = ["serial"]
        original = CampaignBooks.persist

        def recording_persist(books, outcome, executor=None):
            persisted.setdefault(path[0], []).append(outcome)
            original(books, outcome, executor)

        monkeypatch.setattr(CampaignBooks, "persist", recording_persist)
        registry = parity_registry()
        runs = {}
        for name, jobs in (("serial", 1), ("pool", 2), ("coordinator", 1)):
            path[0] = name
            events = []
            telemetry = Telemetry(subscribers=(events.append,))
            plan = CampaignPlan(
                factories=dict(registry),
                traces=[TraceSpec.suite("FP1", 300), TraceSpec.suite("INT1", 300)],
                store_dir=tmp_path / name,
                manifest_path=tmp_path / name / "manifest.json",
                jobs=jobs,
                max_retries=1,
                allow_failures=True,
            )
            if name == "coordinator":
                coordinator = Coordinator(
                    plan,
                    registry_ref="tests.test_distribution:parity_registry",
                    linger_s=3.0,
                    telemetry=telemetry,
                )
                executor = threading.Thread(
                    target=run_executor,
                    args=(coordinator.address,),
                    kwargs={
                        "registry_ref": "tests.test_distribution:parity_registry",
                        "executor_id": "in-thread",
                        "poll_interval": 0.05,
                    },
                    daemon=True,
                )
                executor.start()
                results = coordinator.serve()
                executor.join(timeout=30)
                assert not executor.is_alive()
            else:
                results = run_plan(plan, telemetry)
            manifest = CampaignManifest.load(tmp_path / name / "manifest.json")
            runs[name] = (results, events, manifest)
        return runs, persisted

    def test_three_paths_settle_identically(self, tmp_path, monkeypatch):
        runs, persisted = self.run_three_ways(tmp_path, monkeypatch)

        def outcomes(name):
            return sorted(
                (
                    o.task.index,
                    o.result,
                    None if o.error is None else error_summary(o.error),
                    o.attempts,
                    o.from_cache,
                    o.resumed_from,
                    o.checkpoints,
                    o.warmed,
                    o.corrupt_purged,
                )
                for o in persisted[name]
            )

        def settle_events(events):
            per_task: dict[int, list[dict]] = {}
            for event in events:
                if event["event"] in SETTLE_KINDS:
                    fields = {k: v for k, v in event.items() if k not in PATH_FIELDS}
                    per_task.setdefault(event["index"], []).append(fields)
            finish = [
                {k: v for k, v in e.items() if k not in PATH_FIELDS}
                for e in events_of(events, "campaign_finish")
            ]
            return per_task, finish, len(events_of(events, "progress"))

        def records(manifest):
            return {
                fingerprint: (r.status, r.attempts, r.error, r.resumed_from, r.checkpoints)
                for fingerprint, r in manifest.records.items()
            }

        serial_results, serial_events, serial_manifest = runs["serial"]
        assert serial_results["exploding"] == [None, None]
        assert all(r is not None for r in serial_results["bimodal"])
        failed = [e for e in serial_events if e["event"] == "task_failed"]
        assert len(failed) == 4 and failed[0]["error"] == "RuntimeError: predictor exploded"
        assert len(events_of(serial_events, "task_retry")) == 2
        for name in ("pool", "coordinator"):
            results, events, manifest = runs[name]
            assert results == serial_results, name
            assert outcomes(name) == outcomes("serial"), name
            assert settle_events(events) == settle_events(serial_events), name
            assert records(manifest) == records(serial_manifest), name
        assert {
            e["executor"] for e in runs["coordinator"][1] if e["event"] in SETTLE_KINDS
        } == {"in-thread"}
