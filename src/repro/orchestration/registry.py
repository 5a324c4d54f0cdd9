"""Named predictor factories and trace specs for CLI-driven campaigns.

Every factory here is a module-level function or a ``functools.partial``
over one, so it pickles by reference and can be dispatched to scheduler
worker processes — the reason ``repro simulate --jobs N`` and ``repro
campaign`` can parallelize while lambda-based registries cannot.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

from repro.orchestration.tasks import PredictorFactory, TraceSpec


def _tage(num_tables: int):
    from repro.predictors import Tage, TageConfig

    return Tage(TageConfig.for_tables(num_tables))


def _isl_tage(num_tables: int):
    from repro.predictors import ISLTage, TageConfig

    return ISLTage(TageConfig.for_tables(num_tables))


def _bf_tage(num_tables: int):
    from repro.core import BFTage, BFTageConfig

    return BFTage(BFTageConfig.for_tables(num_tables))


def _bf_isl_tage(num_tables: int):
    from repro.core import BFISLTage, BFTageConfig

    return BFISLTage(BFTageConfig.for_tables(num_tables))


def _perceptron(rows: int, history_length: int):
    from repro.predictors import GlobalPerceptron

    return GlobalPerceptron(rows=rows, history_length=history_length)


def _bimodal():
    from repro.predictors import Bimodal

    return Bimodal()


def _gshare():
    from repro.predictors import GShare

    return GShare()


def _filter():
    from repro.predictors.filter import FilterPredictor

    return FilterPredictor()


def _oh_snap():
    from repro.predictors import ScaledNeural

    return ScaledNeural()


def _bf_neural_64kb():
    from repro.core import bf_neural_64kb

    return bf_neural_64kb()


def _bf_neural_32kb():
    from repro.core import bf_neural_32kb

    return bf_neural_32kb()


def _bf_neural_ahead():
    from repro.core.ahead import AheadPipelinedBFNeural

    return AheadPipelinedBFNeural()


def standard_registry() -> dict[str, PredictorFactory]:
    """The named configurations ``simulate``/``campaign`` accept."""
    return {
        "bimodal": _bimodal,
        "gshare": _gshare,
        "filter": _filter,
        "perceptron": partial(_perceptron, 1024, 64),
        "oh-snap": _oh_snap,
        "tage10": partial(_tage, 10),
        "tage15": partial(_tage, 15),
        "isl-tage10": partial(_isl_tage, 10),
        "isl-tage15": partial(_isl_tage, 15),
        "bf-tage10": partial(_bf_tage, 10),
        "bf-isl-tage10": partial(_bf_isl_tage, 10),
        "bf-neural": _bf_neural_64kb,
        "bf-neural-32k": _bf_neural_32kb,
        "bf-neural-ahead": _bf_neural_ahead,
    }


def trace_spec_for(spec: str, branches: int | None = None) -> TraceSpec:
    """Map a CLI trace argument to a spec — the one parser of the grammar.

    Accepts any registered workload name (the calibrated suite, the
    wild set, the sparse set — everything ``repro.workloads.registry``
    resolves), a ``@manifest.toml#ENTRY`` suite-manifest reference, or
    a trace file in any interchange format (BFBP, BFT text or CSV,
    sniffed by content).  ``branches`` cuts a file or manifest entry to
    its first ``branches`` events and is a workload's generation budget.
    A malformed or unknown argument raises :class:`ValueError`.
    """
    from repro.workloads import is_workload

    if spec.startswith("@"):
        manifest_path, sep, entry = spec[1:].partition("#")
        if not sep or not entry or not manifest_path:
            raise ValueError(
                f"manifest trace reference {spec!r} must look like "
                "'@path/to/suite.toml#ENTRY' (or bare '@path/to/suite.toml' "
                "where a whole-suite expansion is accepted)"
            )
        return TraceSpec.from_manifest(manifest_path, entry, branches)
    if is_workload(spec):
        return TraceSpec.suite(spec, branches)
    path = Path(spec)
    if path.exists():
        return TraceSpec.from_file(path, branches)
    raise ValueError(
        f"unknown trace {spec!r}: not a workload name, a @manifest#entry "
        "reference or a file"
    )


def expand_trace_arg(spec: str, branches: int | None = None) -> list[TraceSpec]:
    """Like :func:`trace_spec_for`, but a bare ``@manifest`` (no
    ``#entry``) expands to one spec per manifest entry — the CLI's way
    of running a whole declared suite."""
    if spec.startswith("@") and "#" not in spec:
        from repro.workloads.manifest import load_manifest

        manifest = load_manifest(spec[1:])
        return [
            TraceSpec.from_manifest(spec[1:], name, branches)
            for name in manifest.entry_names()
        ]
    return [trace_spec_for(spec, branches)]
