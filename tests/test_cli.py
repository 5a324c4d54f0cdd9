"""Tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.orchestration import standard_registry, trace_spec_for

DEMO = Path(__file__).resolve().parent.parent / "examples/suites/demo.toml"


class TestRegistry:
    def test_all_entries_construct(self):
        for name, factory in standard_registry().items():
            predictor = factory()
            assert predictor.predict(0x40) in (True, False)

    def test_expected_names_present(self):
        registry = standard_registry()
        for name in ("bimodal", "gshare", "filter", "oh-snap", "tage10",
                     "bf-tage10", "bf-neural", "bf-neural-ahead"):
            assert name in registry


def _load(spec: str, branches: int | None = None):
    """A trace argument through the one resolver every command uses."""
    return trace_spec_for(spec, branches).resolve()


class TestLoadTrace:
    def test_suite_name(self):
        trace = _load("FP1", 1000)
        assert trace.name == "FP1"
        assert len(trace) >= 1000

    def test_bfbp_file(self, tmp_path):
        from repro.trace.io import write_trace
        from repro.workloads import build_trace

        trace = build_trace("MM1", 800)
        path = tmp_path / "mm1.bfbp"
        write_trace(trace, path)
        loaded = _load(str(path))
        assert loaded.pcs == trace.pcs

    def test_file_with_truncation(self, tmp_path):
        from repro.trace.io import write_trace
        from repro.workloads import build_trace

        trace = build_trace("MM1", 800)
        path = tmp_path / "mm1.bfbp"
        write_trace(trace, path)
        loaded = _load(str(path), 100)
        assert len(loaded) == 100

    def test_unknown_spec(self, capsys):
        with pytest.raises(ValueError, match="unknown trace 'NOSUCH9'"):
            _load("NOSUCH9")
        with pytest.raises(SystemExit, match="unknown trace 'NOSUCH9'"):
            main(["stats", "NOSUCH9"])

    def test_interchange_file(self, tmp_path):
        from repro.workloads import build_trace, format_csv

        trace = build_trace("MM1", 400)
        path = tmp_path / "mm1.csv"
        path.write_text(format_csv(trace), encoding="utf-8")
        loaded = _load(str(path))
        assert loaded.pcs == trace.pcs

    def test_manifest_entry_ref(self, tmp_path):
        manifest = tmp_path / "s.toml"
        manifest.write_text(
            '[suite]\nname = "s"\nversion = 1\n'
            '[[entry]]\nkind = "synthetic"\nname = "FP1"\nbranches = 600\n',
            encoding="utf-8",
        )
        loaded = _load(f"@{manifest}#FP1")
        assert loaded.name == "FP1"
        assert len(loaded) >= 600

    def test_manifest_error_becomes_system_exit(self, tmp_path):
        manifest = tmp_path / "s.toml"
        manifest.write_text(
            '[suite]\nname = "s"\nversion = 1\n'
            '[[entry]]\nkind = "synthetic"\nname = "FP1"\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="GHOST"):
            _load(f"@{manifest}#GHOST")
        for argv in (["stats"], ["diagnose"], ["state", "hash", "--predictor",
                                                "gshare", "--trace"]):
            with pytest.raises(SystemExit, match="GHOST"):
                main([*argv, f"@{manifest}#GHOST"])


class TestOneTraceResolver:
    """``stats``, ``simulate`` and ``state hash --trace`` read every kind
    of trace argument exactly as ``trace_spec_for(...).resolve()`` does."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        from repro.workloads import build_trace, write_any

        trace = build_trace("MM1", 800)
        root = tmp_path_factory.mktemp("traces")
        for suffix in ("bfbp", "bft", "csv"):
            write_any(trace, root / f"mm1.{suffix}")
        return root

    @pytest.mark.parametrize("branches", [None, 300], ids=["full", "cut"])
    @pytest.mark.parametrize(
        "arg", ["FP1", "mm1.bfbp", "mm1.bft", "mm1.csv", f"@{DEMO}#DEMO_MIX"],
        ids=["name", "bfbp", "bft", "csv", "manifest"],
    )
    def test_commands_match_simulate(self, arg, branches, files, capsys):
        from repro.sim.simulator import simulate

        if arg.startswith("mm1."):
            arg = str(files / arg)
        cut = [] if branches is None else ["--branches", str(branches)]
        trace = trace_spec_for(arg, branches).resolve()
        predictor = standard_registry()["gshare"]()
        expected = simulate(predictor, trace)

        assert main(["stats", arg, *cut]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert int(row[1]) == len(trace) == expected.branches

        assert main(["simulate", arg, "--predictors", "gshare", *cut]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line == (
            f"{expected.trace_name:10s} {'gshare':16s} {expected.mpki:8.3f} "
            f"{expected.misprediction_rate:7.2%}"
        )

        assert main(["state", "hash", "--predictor", "gshare",
                     "--trace", arg, *cut]) == 0
        assert capsys.readouterr().out.strip() == predictor.state_hash()

    def test_bare_manifest_expands_for_stats(self, capsys):
        from repro.workloads import load_manifest

        assert main(["stats", f"@{DEMO}", "--branches", "50"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[1] for row in rows] == ["50"] * len(rows)
        assert len(rows) == len(load_manifest(DEMO).entry_names())

    def test_state_trace_takes_one_entry(self):
        with pytest.raises(SystemExit, match="#ENTRY"):
            main(["state", "hash", "--predictor", "gshare", "--trace", f"@{DEMO}"])

    def test_failed_simulate_task_exits_without_traceback(self, tmp_path, capsys):
        from repro.trace.io import write_trace
        from repro.workloads import build_trace

        path = tmp_path / "cut.bfbp"
        write_trace(build_trace("MM1", 400), path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(path), "--predictors", "gshare"])
        message = str(exc.value.code)
        assert exc.value.code not in (0, None)
        assert str(path) in message
        assert "Traceback" not in message + capsys.readouterr().err

    def test_drifted_manifest_pin_exits_with_message(self, tmp_path, capsys):
        # ``simulate`` and ``campaign`` fingerprint a manifest entry
        # before any task runs: a pin its content no longer matches exits
        # with the manifest's message, as ``stats`` does.
        manifest = tmp_path / "s.toml"
        manifest.write_text(
            '[suite]\nname = "s"\nversion = 1\n'
            '[[entry]]\nkind = "synthetic"\nname = "FP1"\nbranches = 300\n'
            'fingerprint = "00"\n',
            encoding="utf-8",
        )
        for argv in (
            ["stats", f"@{manifest}#FP1"],
            ["simulate", f"@{manifest}#FP1", "--predictors", "gshare"],
            ["campaign", "run", f"@{manifest}", "--predictors", "gshare",
             "--cache-dir", str(tmp_path / "cache"), "--quiet"],
        ):
            with pytest.raises(SystemExit, match="manifest pins 00") as exc:
                main(argv)
            assert "entry 'FP1'" in str(exc.value.code)
            assert "Traceback" not in capsys.readouterr().err


class TestSubcommands:
    def test_suite_lists_names(self, capsys):
        assert main(["suite", "--categories", "MM"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["MM1", "MM2", "MM3", "MM4", "MM5"]

    def test_generate_writes_files(self, tmp_path, capsys):
        code = main(
            ["generate", str(tmp_path), "--traces", "FP1", "--branches", "600"]
        )
        assert code == 0
        assert (tmp_path / "FP1.bfbp").exists()

    def test_stats_reports(self, capsys):
        assert main(["stats", "FP1", "--branches", "600"]) == 0
        out = capsys.readouterr().out
        assert "FP1" in out and "%" in out

    def test_simulate_runs(self, capsys):
        code = main(
            ["simulate", "FP1", "--predictors", "bimodal", "--branches", "600"]
        )
        assert code == 0
        assert "bimodal" in capsys.readouterr().out

    def test_simulate_unknown_predictor(self):
        with pytest.raises(SystemExit):
            main(["simulate", "FP1", "--predictors", "oracle9000"])

    def test_storage_lists_budgets(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "bf-neural" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestConvertCommand:
    def test_round_trip_through_cli(self, tmp_path, capsys):
        from repro.trace.io import write_trace
        from repro.workloads import build_trace

        trace = build_trace("FP1", 500)
        source = tmp_path / "fp1.bfbp"
        write_trace(trace, source)
        assert main(["convert", str(source), str(tmp_path / "fp1.bft")]) == 0
        assert main(["convert", str(tmp_path / "fp1.bft"),
                     str(tmp_path / "back.bfbp")]) == 0
        assert (tmp_path / "back.bfbp").read_bytes() == source.read_bytes()
        out = capsys.readouterr().out
        assert "branches" in out and "fingerprint" in out

    def test_malformed_input_exits(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("pc,taken\n1,0\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["convert", str(bad), str(tmp_path / "out.bfbp")])


class TestSuiteManifestCommand:
    def test_describes_manifest(self, capsys):
        from pathlib import Path

        demo = Path(__file__).resolve().parent.parent / "examples/suites/demo.toml"
        assert main(["suite", "--manifest", str(demo)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "DEMO_MIX" in out and "mix" in out

    def test_simulate_accepts_manifest_ref(self, capsys):
        from pathlib import Path

        demo = Path(__file__).resolve().parent.parent / "examples/suites/demo.toml"
        code = main(
            ["simulate", f"@{demo}#DEMO_MIX", "--predictors", "gshare"]
        )
        assert code == 0
        assert "gshare" in capsys.readouterr().out


class TestCountArguments:
    """``--branches`` and ``diagnose --top`` accept positive integers only."""

    COMMANDS = (
        ["generate", "out"],
        ["stats", "FP1"],
        ["simulate", "FP1"],
        ["campaign", "FP1"],
        ["serve-predict"],
        ["state", "dump", "--predictor", "gshare"],
        ["state", "hash", "--predictor", "gshare"],
        ["diagnose", "FP1"],
    )

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: " ".join(argv[:2]))
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_branches_rejected_at_parse_time(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--branches", value])
        assert exc.value.code == 2
        assert "--branches" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_top_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "FP1", "--branches", "500", "--top", value])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_manifest_entry_zero_branches_not_ignored(self, capsys):
        from pathlib import Path

        demo = Path(__file__).resolve().parent.parent / "examples/suites/demo.toml"
        with pytest.raises(SystemExit) as exc:
            main(["stats", f"@{demo}#DEMO_MIX", "--branches", "0"])
        assert exc.value.code == 2

    def test_manifest_entry_truncates(self):
        assert len(_load(f"@{DEMO}#DEMO_MIX", 1)) == 1

    def test_one_branch_accepted(self, capsys):
        assert main(["diagnose", "FP1", "--predictor", "bimodal",
                     "--branches", "1", "--top", "1"]) == 0
        assert "misprediction attribution" in capsys.readouterr().out


class TestPlanArguments:
    """Campaign knobs a ``CampaignPlan`` refuses are usage errors (exit 2),
    reported before any task runs."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["campaign", "run", "SPEC00", "--cache-dir", "",
              "--checkpoint-every", "0", "--state-dir", "{tmp}"], "checkpoint_every"),
            (["campaign", "run", "SPEC00", "--cache-dir", "",
              "--jobs", "2", "--timeout", "-1"], "task_timeout"),
            (["campaign", "run", "SPEC00", "--cache-dir", "", "--warmup", "-5"],
             "warmup_branches"),
            (["campaign", "run", "SPEC00", "--cache-dir", "", "--retries", "-1"],
             "max_retries"),
            (["campaign", "run", "SPEC00", "--cache-dir", "", "--jobs", "0"], "jobs"),
            (["simulate", "SPEC00", "--checkpoint-every", "0", "--state-dir", "{tmp}"],
             "checkpoint_every"),
            (["simulate", "SPEC00", "--jobs", "0"], "jobs"),
        ],
        ids=lambda value: value if isinstance(value, str) else " ".join(value[:2]),
    )
    def test_usage_error(self, argv, field, tmp_path, capsys):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--predictors", "gshare", "--branches", "200"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert "FAILED" not in captured.out and "mpki" not in captured.out.lower()
