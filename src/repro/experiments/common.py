"""Shared CLI and predictor factories for the experiment scripts.

The paper's 64 KB configurations are centralized here so Figures 8-12
all evaluate the same predictors:

* ``oh-snap`` — the scaled neural baseline (128-entry history),
* ``tage-N`` — TAGE with N tagged tables plus the loop predictor (the
  paper's Figure 8 "TAGE" is ISL-TAGE without SC and IUM),
* ``isl-tage-N`` / ``bf-isl-tage-N`` — the full Figure 10 contenders,
* ``bf-neural`` — the 64 KB BF-Neural.
"""

from __future__ import annotations

import argparse
import functools
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core import BFISLTage, BFTageConfig, bf_neural_64kb
from repro.core.bfneural import BFNeural, BFNeuralConfig
from repro.predictors import ISLTage, ScaledNeural, TageConfig
from repro.trace.records import Trace
from repro.workloads import build_trace, trace_names

if TYPE_CHECKING:  # typing only: loading the orchestration package here is slow
    from repro.orchestration.tasks import PredictorFactory


def make_parser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--branches",
        type=int,
        default=None,
        help="branch budget per trace (default: suite default, SPEC 2x)",
    )
    parser.add_argument(
        "--categories",
        nargs="*",
        default=None,
        help="restrict to categories (SPEC FP INT MM SERV)",
    )
    parser.add_argument(
        "--traces", nargs="*", default=None, help="restrict to specific trace names"
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(".bfbp-cache"),
        help="simulation result cache directory ('' disables)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="also write the report to this file"
    )
    parser.add_argument("--verbose", action="store_true", help="per-trace progress")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the simulation grid (1 = serial)",
    )
    return parser


def load_traces(args: argparse.Namespace) -> list[Trace]:
    """Build the requested subset of the suite."""
    names = args.traces if args.traces else trace_names(args.categories)
    return [build_trace(name, args.branches) for name in names]


def cache_dir_of(args: argparse.Namespace) -> Path | None:
    if args.cache_dir in (None, Path("")):
        return None
    return args.cache_dir


def campaign_options(args: argparse.Namespace) -> dict:
    """Campaign keyword arguments every figure script shares."""
    return {
        "cache_dir": cache_dir_of(args),
        "verbose": args.verbose,
        "jobs": getattr(args, "jobs", 1),
    }


# ----------------------------------------------------------------------
# Standard predictor factories (the paper's 64 KB configurations)
# ----------------------------------------------------------------------


def oh_snap() -> ScaledNeural:
    """The Figure 8 neural baseline."""
    return ScaledNeural(history_length=128)


def conventional_perceptron_72() -> ScaledNeural:
    """Figure 9's leftmost bar: hashed conventional perceptron, h=72."""
    return ScaledNeural(history_length=72)


def tage_with_loop(num_tables: int) -> ISLTage:
    """Figure 8's "TAGE": ISL-TAGE without the statistical corrector."""
    return ISLTage(
        TageConfig.for_tables(num_tables), with_statistical_corrector=False
    )


def isl_tage(num_tables: int) -> ISLTage:
    """Full ISL-TAGE (loop + SC) — Figure 10 baseline."""
    return ISLTage(TageConfig.for_tables(num_tables))


def bf_isl_tage(num_tables: int) -> BFISLTage:
    """BF-ISL-TAGE — Figure 10 contender."""
    return BFISLTage(BFTageConfig.for_tables(num_tables))


def bf_neural() -> BFNeural:
    """The 64 KB BF-Neural of Figures 8 and 9."""
    return bf_neural_64kb()


def bf_neural_stage(stage: int) -> BFNeural:
    """Figure 9 ablation stages 1..3 (see bfneural.py's table)."""
    if stage == 1:
        config = BFNeuralConfig(filter_biased_history=False, use_rs=False)
    elif stage == 2:
        config = BFNeuralConfig(filter_biased_history=True, use_rs=False)
    elif stage == 3:
        config = BFNeuralConfig(filter_biased_history=True, use_rs=True)
    else:
        raise ValueError(f"stage must be 1..3, got {stage}")
    return BFNeural(config)


def factory(fn, *args) -> PredictorFactory:
    """Bind a factory function with arguments.

    ``functools.partial`` over a module-level function pickles by
    reference, so bound factories can be dispatched to the orchestration
    layer's worker processes (a lambda would force serial fallback).
    """
    return functools.partial(fn, *args)
