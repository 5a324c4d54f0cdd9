"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``suite``     — list the 40 suite traces and their categories.
* ``generate``  — write suite traces to disk in the BFBP binary format.
* ``stats``     — bias statistics for traces.
* ``simulate``  — run predictors over traces and print MPKI.
* ``campaign``  — run a predictor × trace grid through the orchestration
  engine: parallel workers, content-addressed caching, manifest
  checkpoint/resume and JSONL telemetry.  ``campaign serve`` exposes the
  same grid to remote executors over the lease-based distribution
  protocol and ``campaign work --connect HOST:PORT`` drains it (see
  ``docs/distribution.md``); a bare ``campaign ...`` is shorthand for
  ``campaign run ...``.
* ``serve-predict`` — always-on prediction service: clients stream
  branch events over the same wire protocol and receive predictions,
  warm-started from a snapshot pool (see ``docs/serving.md``).
* ``loadgen``   — drive concurrent client sessions against a prediction
  server; reports throughput and p50/p95/p99 latency.
* ``state``     — dump, hash and diff predictor state snapshots (the
  versioned snapshot/restore protocol of ``docs/state.md``).
* ``diagnose``  — attribute mispredictions to static branches.
* ``storage``   — storage budgets of the standard configurations.

Every trace argument — a workload name, ``@suite.toml#ENTRY`` or a
BFBP/BFT/CSV trace file — is parsed by ``trace_spec_for`` and loaded by
``TraceSpec.resolve`` (``docs/workloads.md``, "Running suites").

The per-figure experiments keep their own entry points under
``python -m repro.experiments.<name>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.trace.io import write_trace
from repro.trace.stats import compute_stats
from repro.workloads import build_trace, trace_names


def _factories(names: list[str]) -> dict:
    """The named predictor factories (picklable, shared with
    ``campaign``); an unknown name exits listing the available ones."""
    from repro.orchestration import standard_registry

    registry = standard_registry()
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise SystemExit(
            f"unknown predictor(s) {unknown}; available: {', '.join(sorted(registry))}"
        )
    return {name: registry[name] for name in names}


def _int_at_least(low: int, kind: str):
    """argparse type for counts of at least ``low``, named ``kind`` in errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value

    return parse


#: ``--branches``, ``--top`` and the like must be at least 1.
_positive_int = _int_at_least(1, "positive")
#: ``diagnose --warmup`` may be 0.
_non_negative_int = _int_at_least(0, "non-negative")


def _or_exit(resolver, *args):
    """Call a trace-argument resolver; a malformed, unknown or unreadable
    trace exits with the resolver's message instead of a traceback."""
    try:
        return resolver(*args)
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc)) from None


def _trace_specs(args: argparse.Namespace) -> list:
    """Specs for the command's trace arguments, limited by ``--branches``.

    A bare ``@suite.toml`` argument expands to every entry the manifest
    declares; ``@suite.toml#ENTRY`` selects one of them.
    """
    from repro.orchestration import expand_trace_arg

    specs = []
    for spec in args.traces:
        specs.extend(_or_exit(expand_trace_arg, spec, args.branches))
    return specs


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.suite_manifest:
        from repro.workloads import ManifestError, load_manifest

        try:
            manifest = load_manifest(args.suite_manifest)
        except ManifestError as exc:
            raise SystemExit(str(exc))
        print(
            f"suite {manifest.name!r} v{manifest.version} "
            f"(fingerprint {manifest.fingerprint()[:16]})"
        )
        for entry in manifest.entries:
            pin = f"  pin {entry.fingerprint[:16]}" if entry.fingerprint else ""
            print(f"  {entry.name:14s} {entry.kind:9s}{pin}")
        return 0
    for name in trace_names(args.categories):
        print(name)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.orchestration import trace_content_fingerprint
    from repro.workloads import InterchangeError, convert

    try:
        trace = convert(args.source, args.dest)
    except (OSError, InterchangeError, ValueError) as exc:
        raise SystemExit(str(exc))
    print(
        f"{args.dest}  ({len(trace)} branches, "
        f"fingerprint {trace_content_fingerprint(trace)})"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.traces or trace_names(args.categories):
        trace = build_trace(name, args.branches)
        path = out_dir / f"{name}.bfbp"
        write_trace(trace, path)
        print(f"{path}  ({len(trace)} branches)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    print(f"{'trace':10s} {'branches':>9s} {'static':>7s} {'%biased':>8s} {'%taken':>7s}")
    for spec in _trace_specs(args):
        trace = _or_exit(spec.resolve)
        stats = compute_stats(trace)
        print(
            f"{trace.name:10s} {stats.dynamic_branches:9d} "
            f"{stats.static_branches:7d} "
            f"{100 * stats.biased_dynamic_fraction:7.1f}% "
            f"{100 * stats.taken_fraction:6.1f}%"
        )
    return 0


def _plan_from_flags(**fields):
    """A ``CampaignPlan`` from command-line values; a value the plan
    refuses is a usage error (exit 2), not a failed campaign."""
    from repro.orchestration import CampaignPlan

    try:
        return CampaignPlan(**fields)
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.orchestration import CampaignError, run_plan
    from repro.workloads.manifest import ManifestError

    factories, specs = _factories(args.predictors), _trace_specs(args)
    state_dir = Path(args.state_dir) if args.state_dir else None
    if args.checkpoint_every and state_dir is None:
        raise SystemExit("--checkpoint-every requires --state-dir")
    try:
        results = run_plan(
            _plan_from_flags(
                factories=factories,
                traces=specs,
                jobs=args.jobs,
                state_dir=state_dir,
                checkpoint_every=args.checkpoint_every,
                kernel=args.kernel,
            )
        )
    except (CampaignError, ManifestError) as exc:
        # A manifest entry is fingerprinted before any task runs, so a
        # drifted pin or a missing imported file surfaces here.
        raise SystemExit(str(exc)) from None
    print(f"{'trace':10s} {'predictor':16s} {'MPKI':>8s} {'rate':>8s}")
    for position, spec in enumerate(specs):
        for name in args.predictors:
            result = results[name][position]
            print(
                f"{result.trace_name:10s} {name:16s} {result.mpki:8.3f} "
                f"{result.misprediction_rate:7.2%}"
            )
    return 0


def _progress_printer():
    """Live one-line-per-event campaign progress for interactive runs."""

    def printer(event: dict) -> None:
        kind = event["event"]
        if kind == "progress":
            eta = event["eta_s"]
            eta_text = f"eta {eta:.0f}s" if eta is not None else "eta --"
            print(
                f"[{event['done']}/{event['total']}] "
                f"{event['tasks_per_s']:.2f} tasks/s {eta_text}",
                flush=True,
            )
        elif kind == "task_failed" and event.get("final"):
            print(
                f"FAILED {event['config']} × {event['trace']}: {event['error']}",
                flush=True,
            )
        elif kind == "task_resume":
            print(
                f"resuming {event['config']} × {event['trace']} "
                f"from branch {event['position']}",
                flush=True,
            )
        elif kind == "worker_restart":
            print(
                f"worker {event['worker']} restarted ({event['reason']})",
                flush=True,
            )
        elif kind == "manifest_resume":
            print(
                f"resuming manifest: {event['done']} done, "
                f"{event['failed']} failed, {event['pending']} pending",
                flush=True,
            )

    return printer


def _campaign_plan(args: argparse.Namespace, jobs: int = 1):
    """Shared plan construction for ``campaign run`` and ``campaign serve``."""
    if not args.traces:
        args.traces = trace_names(args.categories)
    factories, specs = _factories(args.predictors), _trace_specs(args)
    store_dir = Path(args.cache_dir) if args.cache_dir else None
    manifest_path = args.manifest
    if manifest_path is None and store_dir is not None:
        manifest_path = store_dir / "campaign-manifest.json"
    state_dir = Path(args.state_dir) if args.state_dir else None
    if state_dir is None and args.checkpoint_every and store_dir is not None:
        state_dir = store_dir / "state"
    if args.checkpoint_every and state_dir is None:
        raise SystemExit("--checkpoint-every requires --state-dir or --cache-dir")
    return _plan_from_flags(
        factories=factories,
        traces=specs,
        store_dir=store_dir,
        jobs=jobs,
        task_timeout=getattr(args, "timeout", None),
        max_retries=args.retries,
        manifest_path=Path(manifest_path) if manifest_path else None,
        allow_failures=True,
        state_dir=state_dir,
        checkpoint_every=args.checkpoint_every,
        warmup_branches=args.warmup,
        kernel=args.kernel,
    )


def _campaign_report(args: argparse.Namespace, results: dict, telemetry) -> int:
    """Print (and optionally save) the per-predictor summary; count fails."""
    from repro.sim.metrics import aggregate_mpki

    total = sum(len(per_trace) for per_trace in results.values())
    failed = sum(1 for per_trace in results.values() for r in per_trace if r is None)
    lines = [f"{'predictor':16s} {'traces':>7s} {'avg MPKI':>9s}"]
    for name, per_trace in results.items():
        ok = [r for r in per_trace if r is not None]
        avg = f"{aggregate_mpki(ok):9.3f}" if ok else f"{'--':>9s}"
        lines.append(f"{name:16s} {len(ok):7d} {avg}")
    lines.append(
        f"{telemetry.done}/{total} tasks ({telemetry.cache_hits} cached, "
        f"{failed} failed) in {telemetry.elapsed_s():.1f}s"
    )
    report = "\n".join(lines)
    print(report)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(report + "\n")
    return failed


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.orchestration import Telemetry, run_plan
    from repro.workloads.manifest import ManifestError

    plan = _campaign_plan(args, jobs=args.jobs)
    subscribers = () if args.quiet else (_progress_printer(),)
    with Telemetry(jsonl_path=args.telemetry, subscribers=subscribers) as telemetry:
        try:
            results = run_plan(plan, telemetry)
        except ManifestError as exc:
            raise SystemExit(str(exc)) from None
        failed = _campaign_report(args, results, telemetry)
    return 1 if failed else 0


def _cmd_campaign_serve(args: argparse.Namespace) -> int:
    from repro.orchestration import Telemetry
    from repro.orchestration.distserver import Coordinator
    from repro.workloads.manifest import ManifestError

    plan = _campaign_plan(args)
    subscribers = () if args.quiet else (_progress_printer(),)
    with Telemetry(jsonl_path=args.telemetry, subscribers=subscribers) as telemetry:
        try:
            coordinator = Coordinator(
                plan,
                registry_ref=args.registry,
                host=args.host,
                port=args.port,
                lease_ttl=args.lease_ttl,
                telemetry=telemetry,
                auth_token=args.auth_token,
            )
        except ManifestError as exc:
            raise SystemExit(str(exc)) from None
        host, port = coordinator.address
        total = len(coordinator.tasks)
        print(f"serving {total} tasks on {host}:{port}", flush=True)
        results = coordinator.serve()
        failed = _campaign_report(args, results, telemetry)
    return 1 if failed else 0


def _cmd_campaign_work(args: argparse.Namespace) -> int:
    from repro.orchestration import ProtocolError, Telemetry, run_executor

    host, _, port_text = args.connect.rpartition(":")
    if not port_text.isdigit():
        raise SystemExit(f"--connect wants HOST:PORT, got {args.connect!r}")
    address = (host or "127.0.0.1", int(port_text))
    subscribers = () if args.quiet else (_progress_printer(),)
    with Telemetry(jsonl_path=args.telemetry, subscribers=subscribers) as telemetry:
        try:
            stats = run_executor(
                address,
                registry_ref=args.registry,
                executor_id=args.executor_id,
                telemetry=telemetry,
                poll_interval=args.poll,
                connect_timeout=args.connect_timeout,
                max_tasks=args.max_tasks,
                auth_token=args.auth_token,
            )
        except (OSError, ConnectionError, ProtocolError) as exc:
            raise SystemExit(f"executor failed: {exc}")
    print(
        f"executor {stats.executor_id}: {stats.completed} completed, "
        f"{stats.failed} failed, {stats.refused} refused"
    )
    return 0 if not stats.failed and not stats.refused else 1


def _cmd_serve_predict(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.orchestration import Telemetry, standard_registry
    from repro.serving import PredictionServer, WarmSnapshotPool

    if threading.current_thread() is threading.main_thread():
        # A background job starts with SIGINT ignored: install the default
        # handler, and let SIGTERM stop the server the same clean way.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    pool = None
    if not args.no_pool:
        pool = WarmSnapshotPool(
            standard_registry(),
            state_dir=args.state_dir,
            warmup_branches=args.warmup,
            max_shards=args.max_shards,
            branches=args.branches,
        )
    with Telemetry(jsonl_path=args.telemetry) as telemetry:
        if pool is not None:
            pool.telemetry = telemetry
        server = PredictionServer(
            host=args.host,
            port=args.port,
            pool=pool,
            auth_token=args.auth_token,
            telemetry=telemetry,
        )
        host, port = server.address
        try:
            print(f"serving predictions on {host}:{port}", flush=True)
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.orchestration import Telemetry
    from repro.serving import PROFILES, ServeError, run_load, suite_profile

    host, _, port_text = args.connect.rpartition(":")
    if not port_text.isdigit():
        raise SystemExit(f"--connect wants HOST:PORT, got {args.connect!r}")
    address = (host or "127.0.0.1", int(port_text))
    if args.suite:
        try:
            profile = suite_profile(args.suite)
        except ValueError as exc:
            raise SystemExit(str(exc))
    elif args.profile not in PROFILES:
        raise SystemExit(
            f"unknown profile {args.profile!r}; "
            f"available: {', '.join(sorted(PROFILES))}"
        )
    else:
        profile = args.profile
    with Telemetry(jsonl_path=args.telemetry) as telemetry:
        try:
            report = run_load(
                address,
                profile=profile,
                sessions=args.sessions,
                session_events=args.events,
                batch=args.batch,
                warm=args.warm,
                warmup=args.loadgen_warmup,
                auth_token=args.auth_token,
                telemetry=telemetry,
            )
        except (OSError, ConnectionError, ServeError, ValueError) as exc:
            raise SystemExit(f"loadgen failed: {exc}")
    print(
        f"{report.profile}: {report.sessions} sessions, {report.events} events, "
        f"{report.errors} errors, {report.throughput_eps:.0f} events/s, "
        f"p50 {report.p50_ms:.2f} ms, p95 {report.p95_ms:.2f} ms, "
        f"p99 {report.p99_ms:.2f} ms"
    )
    for line in report.error_messages[:10]:
        print(f"  error: {line}")
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return 1 if report.errors else 0


def _trained_predictor(args: argparse.Namespace):
    """Build the named predictor and train it over the given trace."""
    from repro.orchestration import trace_spec_for
    from repro.sim.simulator import simulate

    predictor = _factories([args.predictor])[args.predictor]()
    if args.trace:
        spec = _or_exit(trace_spec_for, args.trace, args.branches)
        simulate(predictor, _or_exit(spec.resolve))
    return predictor


def _cmd_state_dump(args: argparse.Namespace) -> int:
    import json

    state = _trained_predictor(args).snapshot()
    text = json.dumps(state.to_json(), indent=2, sort_keys=True)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(text + "\n")
        print(f"{args.output}  ({state.kind} v{state.version}, {state.hash()[:16]})")
    else:
        print(text)
    return 0


def _cmd_state_hash(args: argparse.Namespace) -> int:
    import json

    from repro.common.state import PredictorState, StateError

    if args.files:
        status = 0
        for file in args.files:
            try:
                state = PredictorState.from_json(json.loads(Path(file).read_text()))
            except (OSError, json.JSONDecodeError, StateError) as exc:
                print(f"{file}: INVALID ({exc})")
                status = 1
                continue
            print(f"{state.hash()}  {file}")
        return status
    if not args.predictor:
        raise SystemExit("state hash needs FILES or --predictor/--trace")
    print(_trained_predictor(args).state_hash())
    return 0


def _cmd_state_diff(args: argparse.Namespace) -> int:
    import json

    from repro.common.state import PredictorState, StateError

    states = []
    for file in (args.left, args.right):
        try:
            states.append(PredictorState.from_json(json.loads(Path(file).read_text())))
        except (OSError, json.JSONDecodeError, StateError) as exc:
            raise SystemExit(f"{file}: {exc}")
    differences = states[0].diff(states[1])
    if not differences:
        print(f"identical ({states[0].hash()[:16]})")
        return 0
    for line in differences[: args.limit]:
        print(line)
    if len(differences) > args.limit:
        print(f"... and {len(differences) - args.limit} more")
    return 1


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.sim.attribution import attribute, format_attribution

    factory = _factories([args.predictor])[args.predictor]
    for spec in _trace_specs(args):
        result = attribute(
            factory(),
            _or_exit(spec.resolve),
            track_providers=args.providers,
            warmup_branches=args.warmup,
        )
        print(format_attribution(result, count=args.top))
        if args.providers and result.provider_misses:
            print("misses by providing component:", dict(sorted(
                result.provider_misses.items(), key=lambda kv: -kv[1])))
        print()
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    from repro.orchestration import standard_registry

    registry = standard_registry()
    print(f"{'predictor':16s} {'KB':>8s}")
    for name in sorted(registry):
        predictor = registry[name]()
        print(f"{name:16s} {predictor.storage_bits() / 8 / 1024:8.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Bias-Free Branch Predictor reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="list suite trace names")
    p_suite.add_argument("--categories", nargs="*", default=None)
    p_suite.add_argument(
        "--manifest",
        dest="suite_manifest",
        default=None,
        help="list the entries (and pins) of a declarative suite "
        "manifest instead of the built-in trace names",
    )
    p_suite.set_defaults(fn=_cmd_suite)

    p_conv = sub.add_parser(
        "convert",
        help="convert traces between the BFBP binary format and the "
        "BFT text/CSV interchange formats (bit-identical round trips)",
    )
    p_conv.add_argument("source", help="input trace (.bfbp/.bft/.csv, sniffed)")
    p_conv.add_argument("dest", help="output trace (format from the extension)")
    p_conv.set_defaults(fn=_cmd_convert)

    p_gen = sub.add_parser("generate", help="write suite traces to .bfbp files")
    p_gen.add_argument("out_dir")
    p_gen.add_argument("--traces", nargs="*", default=None)
    p_gen.add_argument("--categories", nargs="*", default=None)
    p_gen.add_argument("--branches", type=_positive_int, default=None)
    p_gen.set_defaults(fn=_cmd_generate)

    p_stats = sub.add_parser("stats", help="bias statistics for traces")
    p_stats.add_argument("traces", nargs="+")
    p_stats.add_argument("--branches", type=_positive_int, default=None)
    p_stats.set_defaults(fn=_cmd_stats)

    p_sim = sub.add_parser("simulate", help="run predictors over traces")
    p_sim.add_argument("traces", nargs="+")
    p_sim.add_argument("--predictors", nargs="+", default=["bf-neural"])
    p_sim.add_argument("--branches", type=_positive_int, default=None)
    p_sim.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    p_sim.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="save a predictor-state checkpoint every N branches",
    )
    p_sim.add_argument(
        "--state-dir",
        default=None,
        help="checkpoint state store directory (enables resume)",
    )
    p_sim.add_argument(
        "--kernel",
        choices=("scalar", "vectorized", "auto"),
        default="auto",
        help="simulation kernel: the scalar reference loop, the "
        "vectorized batch kernel (bit-identical, much faster for "
        "supported predictors), or auto-selection per predictor "
        "(the default)",
    )
    p_sim.set_defaults(fn=_cmd_simulate)

    p_camp = sub.add_parser(
        "campaign",
        help="run a predictor × trace grid: parallel workers, "
        "content-addressed cache, checkpoint/resume, telemetry; "
        "'serve'/'work' distribute the grid over the lease protocol",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    def add_grid_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "traces",
            nargs="*",
            help="workload names, trace files (.bfbp/.bft/.csv), @suite.toml "
            "manifests or @suite.toml#ENTRY references (default: full suite)",
        )
        parser.add_argument("--categories", nargs="*", default=None)
        parser.add_argument("--predictors", nargs="+", default=["bf-neural"])
        parser.add_argument("--branches", type=_positive_int, default=None)
        parser.add_argument(
            "--cache-dir",
            default=".bfbp-cache",
            help="content-addressed result store ('' disables caching)",
        )
        parser.add_argument(
            "--manifest",
            default=None,
            help="checkpoint manifest path "
            "(default: <cache-dir>/campaign-manifest.json)",
        )
        parser.add_argument(
            "--telemetry",
            default=None,
            help="append JSONL telemetry events to this file",
        )
        parser.add_argument(
            "--retries",
            type=int,
            default=1,
            help="retries per task on crash/timeout/lease expiry",
        )
        parser.add_argument(
            "--checkpoint-every",
            type=int,
            default=None,
            help="save mid-trace state checkpoints every N branches",
        )
        parser.add_argument(
            "--state-dir",
            default=None,
            help="state store directory (default: <cache-dir>/state when "
            "--checkpoint-every is set)",
        )
        parser.add_argument(
            "--warmup",
            type=int,
            default=0,
            help="warmup branches excluded from the measured counts",
        )
        parser.add_argument(
            "--kernel",
            choices=("scalar", "vectorized", "auto"),
            default="auto",
            help="simulation kernel, auto-selected per predictor by default "
            "(fingerprints distinguish kernels, so scalar and vectorized "
            "runs never share a cache entry)",
        )
        parser.add_argument(
            "--output", default=None, help="also write the report here"
        )
        parser.add_argument(
            "--quiet", action="store_true", help="suppress live progress"
        )

    p_camp_run = camp_sub.add_parser(
        "run", help="execute the grid locally (the default mode)"
    )
    add_grid_args(p_camp_run)
    p_camp_run.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    p_camp_run.add_argument(
        "--timeout", type=float, default=None, help="per-task timeout in seconds"
    )
    p_camp_run.set_defaults(fn=_cmd_campaign)

    p_camp_serve = camp_sub.add_parser(
        "serve",
        help="coordinate the grid for remote executors (lease-based "
        "work stealing over a JSON socket protocol)",
    )
    add_grid_args(p_camp_serve)
    p_camp_serve.add_argument("--host", default="127.0.0.1")
    p_camp_serve.add_argument(
        "--port", type=int, default=0, help="listen port (0 = pick a free one)"
    )
    p_camp_serve.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds an unrenewed lease survives before re-queueing",
    )
    p_camp_serve.add_argument(
        "--registry",
        default="repro.orchestration.registry:standard_registry",
        help="module:callable executors resolve config names against",
    )
    p_camp_serve.add_argument(
        "--auth-token",
        default=None,
        help="shared secret executors must present (default: open)",
    )
    p_camp_serve.set_defaults(fn=_cmd_campaign_serve)

    p_camp_work = camp_sub.add_parser(
        "work", help="drain leases from a campaign coordinator"
    )
    p_camp_work.add_argument(
        "--connect", required=True, help="coordinator address HOST:PORT"
    )
    p_camp_work.add_argument(
        "--executor-id", default=None, help="name in telemetry/attribution"
    )
    p_camp_work.add_argument(
        "--registry",
        default="repro.orchestration.registry:standard_registry",
        help="module:callable to resolve config names against",
    )
    p_camp_work.add_argument(
        "--poll", type=float, default=0.25, help="idle claim retry interval"
    )
    p_camp_work.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        help="seconds to keep retrying the initial connection",
    )
    p_camp_work.add_argument(
        "--max-tasks", type=int, default=None, help="stop after N tasks"
    )
    p_camp_work.add_argument(
        "--telemetry",
        default=None,
        help="append executor-local JSONL telemetry events to this file",
    )
    p_camp_work.add_argument(
        "--quiet", action="store_true", help="suppress live progress"
    )
    p_camp_work.add_argument(
        "--auth-token",
        default=None,
        help="shared secret the coordinator requires",
    )
    p_camp_work.set_defaults(fn=_cmd_campaign_work)

    p_serve = sub.add_parser(
        "serve-predict",
        help="always-on prediction service: clients stream branch events "
        "over the campaign wire protocol and get predictions back, "
        "warm-started from the snapshot pool",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="listen port (0 = pick a free one)"
    )
    p_serve.add_argument(
        "--state-dir",
        default=None,
        help="StateStore directory for warm snapshots (shared with campaigns)",
    )
    p_serve.add_argument(
        "--warmup",
        type=int,
        default=2000,
        help="warmup prefix length for pool shards",
    )
    p_serve.add_argument(
        "--max-shards",
        type=int,
        default=8,
        help="warm shards resident before LRU eviction",
    )
    p_serve.add_argument(
        "--branches",
        type=_positive_int,
        default=None,
        help="trace budget backing warm shards (default: workload default)",
    )
    p_serve.add_argument(
        "--no-pool",
        action="store_true",
        help="disable the warm snapshot pool (cold sessions only)",
    )
    p_serve.add_argument(
        "--auth-token",
        default=None,
        help="shared secret clients must present (default: open)",
    )
    p_serve.add_argument(
        "--telemetry",
        default=None,
        help="append JSONL telemetry events to this file",
    )
    p_serve.set_defaults(fn=_cmd_serve_predict)

    p_load = sub.add_parser(
        "loadgen",
        help="drive concurrent client sessions against a prediction "
        "server and report throughput and latency percentiles",
    )
    p_load.add_argument(
        "--connect", required=True, help="prediction server address HOST:PORT"
    )
    p_load.add_argument(
        "--profile",
        default="mixed",
        help="client mix: steady | wild | mixed",
    )
    p_load.add_argument(
        "--suite",
        default=None,
        help="drive the entries of a declarative suite manifest instead "
        "of a built-in profile (sessions run cold: the server cannot "
        "warm-pool workloads it cannot regenerate by name)",
    )
    p_load.add_argument(
        "--sessions", type=int, default=100, help="concurrent sessions to run"
    )
    p_load.add_argument(
        "--events", type=int, default=2000, help="events streamed per session"
    )
    p_load.add_argument(
        "--batch", type=int, default=256, help="events per round trip"
    )
    p_load.add_argument(
        "--warm",
        action="store_true",
        help="open sessions warm from the server's snapshot pool",
    )
    p_load.add_argument(
        "--warmup",
        dest="loadgen_warmup",
        type=int,
        default=None,
        help="warm prefix length to request (default: server pool default)",
    )
    p_load.add_argument(
        "--auth-token", default=None, help="shared secret the server requires"
    )
    p_load.add_argument(
        "--telemetry",
        default=None,
        help="append JSONL telemetry events to this file",
    )
    p_load.add_argument(
        "--output", default=None, help="write the JSON report here"
    )
    p_load.set_defaults(fn=_cmd_loadgen)

    p_state = sub.add_parser(
        "state", help="dump, hash and diff predictor state snapshots"
    )
    state_sub = p_state.add_subparsers(dest="state_command", required=True)

    p_dump = state_sub.add_parser(
        "dump", help="train a predictor over a trace and dump its state JSON"
    )
    p_dump.add_argument("--predictor", required=True)
    p_dump.add_argument(
        "--trace", default=None, help="workload name, @suite.toml#ENTRY or trace file"
    )
    p_dump.add_argument("--branches", type=_positive_int, default=None)
    p_dump.add_argument("--output", default=None, help="write state JSON here")
    p_dump.set_defaults(fn=_cmd_state_dump)

    p_hash = state_sub.add_parser(
        "hash", help="canonical state hash of dumped files or a live predictor"
    )
    p_hash.add_argument("files", nargs="*", help="dumped state JSON files")
    p_hash.add_argument("--predictor", default=None)
    p_hash.add_argument("--trace", default=None)
    p_hash.add_argument("--branches", type=_positive_int, default=None)
    p_hash.set_defaults(fn=_cmd_state_hash)

    p_diff = state_sub.add_parser(
        "diff", help="structural diff of two dumped state files (exit 1 if differ)"
    )
    p_diff.add_argument("left")
    p_diff.add_argument("right")
    p_diff.add_argument("--limit", type=int, default=40, help="max diff lines shown")
    p_diff.set_defaults(fn=_cmd_state_diff)

    p_diag = sub.add_parser("diagnose", help="attribute mispredictions per branch")
    p_diag.add_argument("traces", nargs="+")
    p_diag.add_argument("--predictor", default="bf-neural")
    p_diag.add_argument("--branches", type=_positive_int, default=None)
    p_diag.add_argument("--top", type=_positive_int, default=10)
    p_diag.add_argument("--providers", action="store_true")
    p_diag.add_argument(
        "--warmup",
        type=_non_negative_int,
        default=0,
        help="warmup branches that train the predictor but are not attributed",
    )
    p_diag.set_defaults(fn=_cmd_diagnose)

    p_storage = sub.add_parser("storage", help="storage budgets per predictor")
    p_storage.set_defaults(fn=_cmd_storage)

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """``campaign <grid args>`` is shorthand for ``campaign run ...``.

    Keeps every pre-distribution invocation (``repro campaign FP1
    --jobs 4``) working while ``campaign serve``/``campaign work`` get
    proper subcommands.
    """
    if argv and argv[0] == "campaign":
        if len(argv) == 1 or argv[1] not in ("run", "serve", "work"):
            return ["campaign", "run", *argv[1:]]
    return argv


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_normalize_argv(list(argv)))
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
