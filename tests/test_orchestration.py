"""Tests for the campaign orchestration engine.

Covers the acceptance points of the orchestration subsystem: parallel
execution is bit-identical to serial, an interrupted/partially-failed
manifest resumes without recomputing done tasks, fingerprints invalidate
when a config field changes, corrupt cache entries are surfaced and
purged, timeouts restart wedged workers, and the telemetry event schema
round-trips through its JSONL encoding.

Predictor helpers live at module level so they pickle by reference into
scheduler worker processes.
"""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import pytest

from repro.orchestration import (
    CampaignError,
    CampaignManifest,
    CampaignPlan,
    ResultStore,
    StateStore,
    Telemetry,
    TraceSpec,
    make_event,
    predictor_fingerprint,
    read_events,
    run_plan,
    standard_registry,
    task_fingerprint,
    trace_content_fingerprint,
    validate_event,
    warm_context_key,
)
from repro.orchestration.engine import build_tasks
from repro.orchestration.manifest import STATUS_DONE, STATUS_FAILED
from repro.predictors import AlwaysTaken, Bimodal, GShare
from repro.sim import simulate
from repro.sim.metrics import SimulationResult
from repro.trace.records import Trace, TraceMetadata
from repro.workloads import build_trace

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel scheduler tests rely on the fork start method",
)


def trace_of(events, name="t"):
    meta = TraceMetadata(
        name=name, category="SPEC", instruction_count=max(1, len(events) * 5)
    )
    return Trace(meta, [pc for pc, _ in events], [t for _, t in events])


@dataclass(frozen=True)
class ToyConfig:
    """Minimal *Config stand-in for fingerprint invalidation tests."""

    depth: int = 4
    threshold: int = 9


class ToyPredictor(AlwaysTaken):
    name = "toy"

    def __init__(self, config: ToyConfig = ToyConfig()) -> None:
        self.config = config


def make_toy(depth: int) -> ToyPredictor:
    return ToyPredictor(ToyConfig(depth=depth))


class FlakyPredictor(Bimodal):
    """Behaves like bimodal, but explodes while a marker file exists."""

    name = "flaky"

    def __init__(self, marker: str) -> None:
        super().__init__()
        self.marker = marker

    def predict(self, pc: int) -> bool:
        if Path(self.marker).exists():
            raise RuntimeError("injected task failure")
        return super().predict(pc)


def make_flaky(marker: str) -> FlakyPredictor:
    return FlakyPredictor(marker)


class HangingPredictor(AlwaysTaken):
    name = "hang"

    def predict(self, pc: int) -> bool:
        while True:
            pass


class CrashOncePredictor(Bimodal):
    """Bimodal that dies once, mid-trace, while a marker file exists.

    The marker is consumed by the crash, so the retry runs clean — the
    shape of a transient mid-sweep fault (OOM kill, node preemption).
    """

    name = "crashy"

    def __init__(self, marker: str, crash_at: int = 150) -> None:
        super().__init__()
        self.marker = marker
        self.crash_at = crash_at
        self.calls = 0

    def predict(self, pc: int) -> bool:
        self.calls += 1
        if self.calls >= self.crash_at and Path(self.marker).exists():
            Path(self.marker).unlink()
            raise RuntimeError("injected mid-trace crash")
        return super().predict(pc)


def make_crashy(marker: str) -> CrashOncePredictor:
    return CrashOncePredictor(marker)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert predictor_fingerprint(make_toy(4)) == predictor_fingerprint(make_toy(4))

    def test_config_field_change_invalidates(self):
        assert predictor_fingerprint(make_toy(4)) != predictor_fingerprint(make_toy(5))

    def test_distinct_predictors_distinct(self):
        assert predictor_fingerprint(Bimodal()) != predictor_fingerprint(GShare())

    def test_trace_content_sensitive(self):
        a = trace_of([(4, True), (8, False)])
        b = trace_of([(4, True), (8, True)])
        assert trace_content_fingerprint(a) != trace_content_fingerprint(b)

    def test_suite_spec_identity_includes_budget(self):
        assert (
            TraceSpec.suite("FP1", 500).identity()
            != TraceSpec.suite("FP1", 600).identity()
        )

    def test_source_digest_covers_component_modules(self):
        """BF-Neural's and BF-TAGE's keys digest the modules of the
        components they hold (BST, stacks, loop predictor, history
        registers, TAGE tables) and of the simulator's own imports,
        and nothing outside the package."""
        from repro.core import BFNeural, BFTage
        from repro.orchestration.fingerprint import code_modules

        neural, tage = set(code_modules(BFNeural())), set(code_modules(BFTage()))
        assert {
            "repro.core.bst",
            "repro.core.recency_stack",
            "repro.common.histories",
            "repro.predictors.loop",
            "repro.common.bitops",
            "repro.predictors.base",
        } <= neural
        assert {
            "repro.core.bst",
            "repro.core.segments",
            "repro.predictors.tage.components",
        } <= tage
        for predictor in (BFNeural(), BFTage(), GShare()):
            for mode in ("scalar", "auto"):
                assert all(name.startswith("repro.") for name in code_modules(predictor, mode))

    def test_track_providers_changes_key(self):
        fp = predictor_fingerprint(Bimodal())
        identity = TraceSpec.suite("FP1", 500).identity()
        assert task_fingerprint(fp, identity, False) != task_fingerprint(
            fp, identity, True
        )


#: Prints, for each config named on the command line, the key of its
#: task on one suite trace under every kernel mode, as a campaign
#: computes it.
TASK_KEYS_SCRIPT = """
import json, sys
from repro.orchestration import CampaignPlan, TraceSpec, standard_registry
from repro.orchestration.engine import build_tasks

registry = standard_registry()
keys = {
    config: {
        mode: build_tasks(CampaignPlan(
            factories={config: registry[config]},
            traces=[TraceSpec.suite("FP1", 500)],
            kernel=mode,
        ))[0].fingerprint
        for mode in ("scalar", "vectorized", "auto")
    }
    for config in sys.argv[1:]
}
print(json.dumps(keys))
"""

#: Prints every ``.py`` file opened while one process computes the keys
#: of every registered config under every kernel mode.
DIGESTED_FILES_SCRIPT = """
import json, sys
from repro.orchestration import CampaignPlan, TraceSpec, standard_registry
from repro.orchestration.engine import build_tasks

plans = [
    CampaignPlan(factories=standard_registry(), traces=[TraceSpec.suite("FP1", 500)], kernel=mode)
    for mode in ("scalar", "vectorized", "auto")
]
opened = set()
sys.addaudithook(lambda event, args: event == "open" and opened.add(str(args[0])))
for plan in plans:
    build_tasks(plan)
print(json.dumps(sorted(path for path in opened if path.endswith(".py"))))
"""

SRC = Path(__file__).resolve().parents[1] / "src"


def run_script(script: str, src: Path, *args: str):
    output = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return json.loads(output)


def edited_tree(tmp_path: Path, edits: dict) -> Path:
    """A copy of the ``repro`` package with ``edits`` ({module: function
    of its source text}) applied."""
    shutil.copytree(
        SRC / "repro", tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    for module, edit in edits.items():
        path = tmp_path.joinpath(*module.split(".")).with_suffix(".py")
        text = path.read_text()
        edited = edit(text)
        assert edited != text, module
        path.write_text(edited)
    return tmp_path


def prose_edit(text: str) -> str:
    """Reword the module docstring and add comments and blank lines."""
    return "# a comment\n" + text.replace('"""', '"""Reworded. ', 1) + "\n\n# an edit\n"


def code_edit(text: str) -> str:
    return text + "\n_EDIT = 1\n"


@pytest.fixture(scope="module")
def unedited_keys():
    return run_script(TASK_KEYS_SCRIPT, SRC, "gshare", "bf-neural", "oh-snap")


class TestCodeFingerprint:
    """A key covers the code tokens of the predictor's import closure
    and, for kernel modes, its kernel's: prose edits keep every key, and
    a code edit changes only the keys whose closure holds the module."""

    def test_prose_edit_keeps_every_key(self, tmp_path, unedited_keys):
        src = edited_tree(
            tmp_path,
            {"repro.sim.simulator": prose_edit, "repro.sim.bfkernel": prose_edit},
        )
        assert run_script(TASK_KEYS_SCRIPT, src, "gshare", "bf-neural", "oh-snap") == unedited_keys

    def test_one_token_simulator_edit_changes_every_key(self, tmp_path, unedited_keys):
        src = edited_tree(
            tmp_path,
            {
                "repro.sim.simulator": lambda text: text.replace(
                    "mispredictions += 1", "mispredictions += 2", 1
                )
            },
        )
        after = run_script(TASK_KEYS_SCRIPT, src, "gshare", "bf-neural")
        for config, keys in after.items():
            for mode, key in keys.items():
                assert key != unedited_keys[config][mode], (config, mode)

    def test_snap_kernel_edit_touches_only_snap_keys(self, tmp_path, unedited_keys):
        src = edited_tree(tmp_path, {"repro.sim.snapkernel": code_edit})
        after = run_script(TASK_KEYS_SCRIPT, src, "gshare", "bf-neural", "oh-snap")
        assert after["oh-snap"]["auto"] != unedited_keys["oh-snap"]["auto"]
        assert after["oh-snap"]["scalar"] == unedited_keys["oh-snap"]["scalar"]
        assert after["gshare"] == unedited_keys["gshare"]
        assert after["bf-neural"] == unedited_keys["bf-neural"]

    def test_bitops_edit_changes_scalar_keys(self, tmp_path, unedited_keys):
        src = edited_tree(tmp_path, {"repro.common.bitops": code_edit})
        after = run_script(TASK_KEYS_SCRIPT, src, "gshare", "bf-neural")
        assert after["gshare"]["scalar"] != unedited_keys["gshare"]["scalar"]
        assert after["bf-neural"]["scalar"] != unedited_keys["bf-neural"]["scalar"]

    def test_only_package_source_is_digested(self):
        opened = run_script(DIGESTED_FILES_SCRIPT, SRC)
        assert opened
        package = str(SRC / "repro")
        assert [path for path in opened if not path.startswith(package)] == []


class TestKernelFingerprint:
    @pytest.mark.parametrize(
        "module", ["repro.sim.batchkernel", "repro.sim.bfkernel", "repro.common.tablestate"]
    )
    def test_kernel_edit_invalidates_only_kernel_keys(self, module, tmp_path, unedited_keys):
        """A code edit to a kernel module changes the kernel-mode keys of
        a predictor whose kernel imports it, never its scalar key
        (gshare's kernel does not import ``bfkernel``: BF-Neural's does)."""
        config = "bf-neural" if module == "repro.sim.bfkernel" else "gshare"
        before = unedited_keys[config]
        src = edited_tree(tmp_path, {module: code_edit})
        after = run_script(TASK_KEYS_SCRIPT, src, config)[config]
        assert after["scalar"] == before["scalar"]
        assert after["vectorized"] != before["vectorized"]
        assert after["auto"] != before["auto"]


class TestResultStore:
    def result(self):
        return SimulationResult(
            trace_name="t", predictor_name="p", branches=10,
            instructions=100, mispredictions=3,
        )

    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store("abc", self.result())
        assert store.load("abc") == self.result()

    def test_corrupt_entry_emits_event_and_purges(self, tmp_path):
        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        store = ResultStore(tmp_path, telemetry)
        store.path_for("bad").parent.mkdir(parents=True, exist_ok=True)
        store.path_for("bad").write_text("{not json")
        assert store.load("bad") is None
        assert not store.path_for("bad").exists()
        assert [e["event"] for e in events] == ["cache_corrupt"]

    def test_mismatched_schema_is_corrupt(self, tmp_path):
        events = []
        store = ResultStore(tmp_path, Telemetry(subscribers=(events.append,)))
        store.path_for("bad").parent.mkdir(parents=True, exist_ok=True)
        store.path_for("bad").write_text(json.dumps({"trace_name": "t"}))
        assert store.load("bad") is None
        assert events and events[0]["event"] == "cache_corrupt"

    def test_negative_count_is_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        store.path_for("bad").parent.mkdir(parents=True, exist_ok=True)
        store.path_for("bad").write_text(
            json.dumps(
                {
                    "trace_name": "t", "predictor_name": "p", "branches": -1,
                    "instructions": 100, "mispredictions": 0,
                }
            )
        )
        assert store.load("bad") is None


class TestTelemetrySchema:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_event("no_such_event", foo=1)

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError):
            validate_event({"v": 1, "ts": 0.0, "event": "task_start", "index": 1})

    def test_schema_declares_distribution_kinds(self):
        from repro.orchestration.telemetry import EVENT_FIELDS, SCHEMA_VERSION

        assert SCHEMA_VERSION == 4
        assert EVENT_FIELDS["executor_join"] == ("executor",)
        assert EVENT_FIELDS["executor_dead"] == ("executor", "reason")
        assert EVENT_FIELDS["lease_grant"] == (
            "index", "config", "trace", "executor", "lease_id",
        )
        assert EVENT_FIELDS["lease_expire"] == ("index", "executor", "lease_id")

    def test_v3_kinds_validate(self):
        make_event("executor_join", executor="host-1")
        make_event("executor_dead", executor="host-1", reason="connection lost")
        make_event(
            "lease_grant", index=0, config="bimodal", trace="FP1",
            executor="host-1", lease_id="L1",
        )
        make_event("lease_expire", index=0, executor="host-1", lease_id="L1")

    def test_v3_kinds_require_fields(self):
        with pytest.raises(ValueError, match="lease_id"):
            make_event("lease_grant", index=0, config="b", trace="FP1",
                       executor="host-1")
        with pytest.raises(ValueError, match="reason"):
            make_event("executor_dead", executor="host-1")

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Telemetry(jsonl_path=path) as telemetry:
            telemetry.emit("campaign_start", campaign_id="x", total_tasks=2, jobs=2)
            telemetry.emit(
                "task_start", index=0, config="a", trace="FP1", attempt=1
            )
            telemetry.emit(
                "task_finish", index=0, config="a", trace="FP1",
                elapsed_s=0.5, mpki=1.25,
            )
            telemetry.emit(
                "cache_hit", index=1, config="a", trace="INT1", fingerprint="f"
            )
            telemetry.emit("executor_join", executor="ex0")
            telemetry.emit(
                "lease_grant", index=1, config="a", trace="INT1",
                executor="ex0", lease_id="L1",
            )
            telemetry.emit("lease_expire", index=1, executor="ex0", lease_id="L1")
            telemetry.emit(
                "campaign_finish", done=2, failed=0, cache_hits=1, elapsed_s=0.6
            )
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "campaign_start", "task_start", "task_finish", "cache_hit",
            "executor_join", "lease_grant", "lease_expire", "campaign_finish",
        ]
        assert all(isinstance(e["ts"], float) for e in events)

    def test_counters(self):
        telemetry = Telemetry()
        telemetry.emit("task_finish", index=0, config="a", trace="t",
                       elapsed_s=0.1, mpki=1.0)
        telemetry.emit("cache_hit", index=1, config="a", trace="u", fingerprint="f")
        assert telemetry.done == 2
        assert telemetry.cache_hits == 1


def small_grid(jobs: int, store_dir=None, **kwargs) -> CampaignPlan:
    return CampaignPlan(
        factories={"bimodal": Bimodal, "gshare": GShare},
        traces=[TraceSpec.suite("FP1", 400), TraceSpec.suite("INT1", 400)],
        store_dir=store_dir,
        jobs=jobs,
        **kwargs,
    )


class TestEngine:
    @needs_fork
    def test_parallel_equals_serial(self):
        serial = run_plan(small_grid(jobs=1))
        parallel = run_plan(small_grid(jobs=2))
        assert serial == parallel  # SimulationResult dataclass equality

    def test_result_ordering(self):
        results = run_plan(small_grid(jobs=1))
        assert list(results) == ["bimodal", "gshare"]
        assert [r.trace_name for r in results["bimodal"]] == ["FP1", "INT1"]

    def test_inline_traces_supported(self):
        traces = [trace_of([(4, True)] * 60, name="A")]
        results = run_plan(CampaignPlan(factories={"a": AlwaysTaken}, traces=traces))
        assert results["a"][0].mispredictions == 0

    @needs_fork
    def test_unpicklable_factory_falls_back_serial(self):
        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        plan = CampaignPlan(
            factories={"lam": lambda: Bimodal()},
            traces=[TraceSpec.suite("FP1", 300)],
            jobs=2,
        )
        results = run_plan(plan, telemetry)
        assert "serial_fallback" in {e["event"] for e in events}
        assert results["lam"][0].branches >= 300

    def test_cache_hit_skips_simulation(self, tmp_path):
        run_plan(small_grid(jobs=1, store_dir=tmp_path))
        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        run_plan(small_grid(jobs=1, store_dir=tmp_path), telemetry)
        kinds = [e["event"] for e in events]
        assert kinds.count("cache_hit") == 4
        assert "task_start" not in kinds
        assert telemetry.cache_hits == 4
        assert telemetry.simulated == 0

    def test_failure_raises_campaign_error(self, tmp_path):
        marker = tmp_path / "marker"
        marker.touch()
        plan = CampaignPlan(
            factories={"flaky": partial(make_flaky, str(marker))},
            traces=[TraceSpec.suite("FP1", 300)],
            max_retries=0,
        )
        with pytest.raises(CampaignError):
            run_plan(plan)

    def test_retry_then_success(self, tmp_path):
        """A transient failure consumed by the retry budget still succeeds."""
        marker = tmp_path / "marker"
        marker.touch()

        events = []

        def clear_marker_on_failure(event):
            events.append(event)
            if event["event"] == "task_failed":
                marker.unlink(missing_ok=True)

        telemetry = Telemetry(subscribers=(clear_marker_on_failure,))
        plan = CampaignPlan(
            factories={"flaky": partial(make_flaky, str(marker))},
            traces=[TraceSpec.suite("FP1", 300)],
            max_retries=1,
        )
        results = run_plan(plan, telemetry)
        kinds = [e["event"] for e in events]
        assert "task_retry" in kinds
        assert results["flaky"][0].branches >= 300


class TestManifestResume:
    def grid(self, marker: Path, store: Path) -> CampaignPlan:
        return CampaignPlan(
            factories={
                "bimodal": Bimodal,
                "flaky": partial(make_flaky, str(marker)),
            },
            traces=[TraceSpec.suite("FP1", 300), TraceSpec.suite("INT1", 300)],
            store_dir=store,
            manifest_path=store / "manifest.json",
            max_retries=0,
            allow_failures=True,
        )

    def test_resume_recomputes_only_failures(self, tmp_path):
        marker = tmp_path / "marker"
        store = tmp_path / "store"
        marker.touch()

        first = run_plan(self.grid(marker, store))
        assert all(r is not None for r in first["bimodal"])
        assert all(r is None for r in first["flaky"])
        manifest = CampaignManifest.load(store / "manifest.json")
        counts = manifest.counts()
        assert counts[STATUS_DONE] == 2 and counts[STATUS_FAILED] == 2

        # The injected fault is fixed; resume must serve the two done
        # tasks from the store and re-run only the two failed ones.
        marker.unlink()
        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        second = run_plan(self.grid(marker, store), telemetry)
        kinds = [e["event"] for e in events]
        assert "manifest_resume" in kinds
        assert kinds.count("cache_hit") == 2
        started = [e for e in events if e["event"] == "task_start"]
        assert sorted(e["config"] for e in started) == ["flaky", "flaky"]
        assert all(r is not None for r in second["flaky"])
        manifest = CampaignManifest.load(store / "manifest.json")
        assert manifest.counts()[STATUS_DONE] == 4

    def test_stale_manifest_for_other_grid_discarded(self, tmp_path):
        store = tmp_path / "store"
        plan_a = CampaignPlan(
            factories={"bimodal": Bimodal},
            traces=[TraceSpec.suite("FP1", 300)],
            store_dir=store,
            manifest_path=store / "manifest.json",
        )
        run_plan(plan_a)
        id_a = CampaignManifest.load(store / "manifest.json").campaign_id
        plan_b = CampaignPlan(
            factories={"gshare": GShare},
            traces=[TraceSpec.suite("FP1", 300)],
            store_dir=store,
            manifest_path=store / "manifest.json",
        )
        run_plan(plan_b)
        manifest = CampaignManifest.load(store / "manifest.json")
        assert manifest.campaign_id != id_a
        assert manifest.counts()[STATUS_DONE] == 1


@needs_fork
class TestFaultTolerance:
    def test_timeout_restarts_worker(self):
        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        plan = CampaignPlan(
            factories={"hang": HangingPredictor, "bimodal": Bimodal},
            traces=[TraceSpec.suite("FP1", 200)],
            jobs=2,
            task_timeout=1.0,
            max_retries=0,
            allow_failures=True,
        )
        results = run_plan(plan, telemetry)
        kinds = [e["event"] for e in events]
        assert "worker_restart" in kinds
        restart = next(e for e in events if e["event"] == "worker_restart")
        assert restart["reason"] == "timeout"
        assert results["hang"][0] is None
        assert results["bimodal"][0] is not None


class TestCampaignCli:
    def test_campaign_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "campaign", "FP1", "INT1",
            "--predictors", "bimodal", "gshare",
            "--branches", "400",
            "--cache-dir", str(tmp_path / "store"),
            "--telemetry", str(tmp_path / "events.jsonl"),
            "--quiet",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "bimodal" in first and "0 cached" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "4 cached" in second

        events = read_events(tmp_path / "events.jsonl")
        assert {e["event"] for e in events} >= {"campaign_start", "campaign_finish"}

    def test_campaign_default_traces_from_categories(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--categories", "SERV",
                "--predictors", "bimodal",
                "--branches", "200",
                "--cache-dir", str(tmp_path / "store"),
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "5" in out  # five SERV traces

    def test_simulate_jobs_matches_serial(self, capsys):
        from repro.cli import main

        argv = ["simulate", "FP1", "--predictors", "bimodal", "--branches", "300"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestStateStore:
    def checkpoint(self, position=100):
        predictor = Bimodal()
        trace = build_trace("FP1", 400)
        return simulate(predictor, trace, stop_after=position).checkpoint

    def test_save_load_roundtrip(self, tmp_path):
        store = StateStore(tmp_path)
        checkpoint = self.checkpoint()
        path = store.save("ctx", checkpoint)
        assert path.name.endswith("@100.state.json")
        assert store.load("ctx", 100) == checkpoint

    def test_latest_picks_highest_position(self, tmp_path):
        store = StateStore(tmp_path)
        for position in (100, 300, 200):
            store.save("ctx", self.checkpoint(position))
        assert store.latest("ctx").position == 300

    def test_latest_respects_max_position(self, tmp_path):
        store = StateStore(tmp_path)
        for position in (100, 200, 300):
            store.save("ctx", self.checkpoint(position))
        assert store.latest("ctx", max_position=200).position == 200
        assert store.latest("ctx", max_position=99) is None

    def test_context_keys_isolated(self, tmp_path):
        store = StateStore(tmp_path)
        store.save("a", self.checkpoint())
        assert store.latest("b") is None

    def test_missing_root_is_a_miss(self, tmp_path):
        assert StateStore(tmp_path / "never-created").latest("ctx") is None

    def test_corrupt_entry_purged(self, tmp_path):
        store = StateStore(tmp_path)
        path = store.save("ctx", self.checkpoint())
        path.write_text("{truncated")
        assert store.load("ctx", 100) is None
        assert not path.exists()

    def test_tampered_state_purged(self, tmp_path):
        store = StateStore(tmp_path)
        path = store.save("ctx", self.checkpoint())
        doc = json.loads(path.read_text())
        doc["predictor_state"]["payload"]["table"][0] = 3
        path.write_text(json.dumps(doc))
        assert store.load("ctx", 100) is None
        assert not path.exists()

    def test_warm_context_key_discriminates(self):
        base = warm_context_key("fp", "trace", 1000)
        assert warm_context_key("fp2", "trace", 1000) != base
        assert warm_context_key("fp", "trace2", 1000) != base
        assert warm_context_key("fp", "trace", 2000) != base


class TestCheckpointResume:
    def plan(self, factory, state: Path, manifest: Path | None = None, **kwargs):
        return CampaignPlan(
            factories={"crashy": factory},
            traces=[TraceSpec.suite("FP1", 400)],
            state_dir=state,
            checkpoint_every=100,
            manifest_path=manifest,
            **kwargs,
        )

    def test_killed_task_resumes_from_checkpoint(self, tmp_path):
        """A task that dies mid-trace resumes its retry from the last cut,
        and the resumed result is bit-identical to an uninterrupted run."""
        marker = tmp_path / "marker"
        marker.touch()
        factory = partial(make_crashy, str(marker))

        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        results = run_plan(
            self.plan(
                factory,
                tmp_path / "state",
                manifest=tmp_path / "manifest.json",
                max_retries=1,
            ),
            telemetry,
        )
        kinds = [e["event"] for e in events]
        assert "task_retry" in kinds
        resume = next(e for e in events if e["event"] == "task_resume")
        assert resume["position"] == 100  # the cut before the crash at ~150

        record = next(
            iter(
                CampaignManifest.load(tmp_path / "manifest.json").records.values()
            )
        )
        assert record.status == STATUS_DONE
        assert record.resumed_from == 100
        assert record.checkpoints >= 1

        cold = run_plan(
            CampaignPlan(
                factories={"crashy": factory},
                traces=[TraceSpec.suite("FP1", 400)],
            )
        )
        assert results["crashy"][0] == cold["crashy"][0]

    def test_prepopulated_store_resumes_without_failure(self, tmp_path):
        """Checkpoints left by a killed campaign process (not just a failed
        task) are picked up on the next run of the same plan."""
        plan = self.plan(Bimodal, tmp_path / "state")
        # Simulate the first 200 branches by hand and park the cut in the
        # store under the exact fingerprint the engine will look up.
        task = build_tasks(plan)[0]
        trace = build_trace("FP1", 400)
        cut = simulate(Bimodal(), trace, stop_after=200).checkpoint
        StateStore(tmp_path / "state").save(task.fingerprint, cut)

        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        results = run_plan(self.plan(Bimodal, tmp_path / "state"), telemetry)
        resume = next(e for e in events if e["event"] == "task_resume")
        assert resume["position"] == 200
        assert results["crashy"][0] == run_plan(
            CampaignPlan(factories={"b": Bimodal}, traces=[TraceSpec.suite("FP1", 400)])
        )["b"][0]

    def test_checkpoint_files_written(self, tmp_path):
        run_plan(self.plan(Bimodal, tmp_path / "state"))
        saved = sorted((tmp_path / "state").glob("*.state.json"))
        assert len(saved) >= 3  # cuts at 100/200/300 for a ~400-branch trace


class TestWarmShare:
    def pair(self, state: Path, **kwargs):
        return CampaignPlan(
            factories={"src": GShare, "variant": GShare},
            traces=[TraceSpec.suite("FP1", 500)],
            state_dir=state,
            warmup_branches=200,
            warm_share={"variant": "src"},
            **kwargs,
        )

    def test_variant_inherits_source_warm_state(self, tmp_path):
        """An identically-configured variant seeded with the source's warm
        state must reproduce the source's measured region exactly."""
        events = []
        telemetry = Telemetry(subscribers=(events.append,))
        results = run_plan(self.pair(tmp_path / "state"), telemetry)
        warm = next(e for e in events if e["event"] == "warm_restore")
        assert warm["config"] == "variant"
        assert "table" in warm["components"]
        assert results["variant"][0] == results["src"][0]

    def test_deterministic_across_cold_and_warm_store(self, tmp_path):
        first = run_plan(self.pair(tmp_path / "a"))
        # Second run against a store already holding the source state.
        prewarmed = run_plan(self.pair(tmp_path / "a"))
        cold = run_plan(self.pair(tmp_path / "b"))
        assert first == prewarmed == cold

    def test_warm_share_validation(self, tmp_path):
        with pytest.raises(ValueError, match="not in factories"):
            CampaignPlan(
                factories={"a": GShare},
                traces=[TraceSpec.suite("FP1", 100)],
                warmup_branches=50,
                warm_share={"a": "ghost"},
            )
        with pytest.raises(ValueError, match="its own source"):
            CampaignPlan(
                factories={"a": GShare},
                traces=[TraceSpec.suite("FP1", 100)],
                warmup_branches=50,
                warm_share={"a": "a"},
            )
        with pytest.raises(ValueError, match="warmup_branches"):
            CampaignPlan(
                factories={"a": GShare, "b": GShare},
                traces=[TraceSpec.suite("FP1", 100)],
                warm_share={"b": "a"},
            )


class TestPlanValidation:
    """``CampaignPlan`` refuses knob values no campaign can run with."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("jobs", 0),
            ("max_retries", -1),
            ("task_timeout", 0),
            ("task_timeout", -1.0),
            ("checkpoint_every", 0),
            ("warmup_branches", -5),
        ],
    )
    def test_out_of_range_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            CampaignPlan(
                factories={"a": GShare},
                traces=[TraceSpec.suite("FP1", 100)],
                **{field: value},
            )

    def test_boundary_values_accepted(self):
        plan = CampaignPlan(
            factories={"a": GShare},
            traces=[TraceSpec.suite("FP1", 100)],
            jobs=1,
            max_retries=0,
            task_timeout=0.5,
            checkpoint_every=1,
            warmup_branches=0,
        )
        assert plan.jobs == 1 and plan.max_retries == 0


class TestErrorSummary:
    def test_last_non_blank_line(self):
        from repro.orchestration.tasks import error_summary

        assert error_summary("Traceback:\n  frame\nValueError: x\n\n") == "ValueError: x"
        assert error_summary("worker process died") == "worker process died"

    @pytest.mark.parametrize("error", [None, "", "   ", " \n\t\n "])
    def test_blank_is_unknown(self, error):
        from repro.orchestration.tasks import TaskOutcome, error_summary

        assert error_summary(error) == "unknown"
        task = build_tasks(
            CampaignPlan(factories={"a": GShare}, traces=[TraceSpec.suite("FP1", 100)])
        )[0]
        failure = CampaignError([TaskOutcome(task=task, error=error)])
        assert str(failure).endswith(": unknown")


class TestTraceSpecFingerprintGolden:
    """Task fingerprints of every spec kind the CLI resolves, recorded
    before trace loading moved onto ``TraceSpec.resolve`` alone: a change
    here turns every cached result of that kind cold."""

    GOLDEN = [
        ("suite", "SPEC02", 3000,
         "4acb495facb5f2cfda6efe85fd741ef3ea528854bd8ab43542b0cd8493cad412"),
        ("suite", "SPEC02", None,
         "151e7d39c600420595b73884863b6b707bd7c789dd9d2830dbf19962a4ed5dd1"),
        ("file", "mm1", None,
         "87f35fddb1610f065317de4bc0b797ce14b6fcb8cb1bc4b66b4c0939c5c0f437"),
        ("file", "mm1", 100,
         "3bf8cf51edf63064d3da374acb0d172269e5738bd46b8ddeefff1f2b2c3bd7e8"),
        ("manifest", "FP1", None,
         "04d28d0c99e3f76fa93718abd1bab0498878b9c5ea3f7bb0be4a7510d6e75e82"),
        ("manifest", "DEMO_STORM", None,
         "61961df3be14964c4612f435529a0b5ad9b2d96eb977780331ccb878e3805b60"),
        ("manifest", "DEMO_IMPORT", None,
         "043106fe0c1571b5f0963f1a67b59dd546b574b26d4ce86ebc58681f5946cb05"),
        ("manifest", "DEMO_MIX", None,
         "437ca8944f86530338944d3a6d28fcfbb7f7b04a8edcf1005d22416b4389c008"),
    ]

    def test_fingerprints_unchanged(self, tmp_path):
        from repro.orchestration import expand_trace_arg, trace_spec_for
        from repro.trace.io import write_trace

        demo = Path(__file__).resolve().parent.parent / "examples/suites/demo.toml"
        path = tmp_path / "mm1.bfbp"
        write_trace(build_trace("MM1", 800), path)
        specs = [
            trace_spec_for("SPEC02", 3000),
            trace_spec_for("SPEC02"),
            trace_spec_for(str(path)),
            trace_spec_for(str(path), 100),
            *expand_trace_arg(f"@{demo}"),
        ]
        tasks = build_tasks(
            CampaignPlan(
                factories={"gshare": standard_registry()["gshare"]},
                traces=specs,
                kernel="scalar",
            )
        )
        assert [
            (task.trace.kind, task.trace.name, task.trace.branches, task.fingerprint)
            for task in tasks
        ] == self.GOLDEN

    #: The key of a plan that leaves the kernel at its default, ``auto``:
    #: it carries ``|kernel=auto`` and covers gshare's kernel module, so
    #: a code edit to ``batchkernel`` or ``tablestate`` changes it too.
    AUTO_GOLDEN = "bd53d3b995da5018b1044ccbe264a9f919413c5bd28a9c22ab28ab8d05c0f0c2"

    def test_auto_default_fingerprint(self):
        from repro.orchestration import trace_spec_for

        plan = CampaignPlan(
            factories={"gshare": standard_registry()["gshare"]},
            traces=[trace_spec_for("SPEC02", 3000)],
        )
        (task,) = build_tasks(plan)
        assert plan.kernel == task.kernel == "auto"
        assert task.fingerprint == self.AUTO_GOLDEN
        assert task.fingerprint != self.GOLDEN[0][3]
