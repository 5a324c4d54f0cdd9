"""Baseline predictor substrate.

Everything the paper compares against (or builds on) is implemented here
from scratch: bimodal and gshare reference points, the classic global
perceptron, the piecewise-linear "conventional perceptron" baseline of
Figure 9, an OH-SNAP-style scaled neural predictor (Figure 8), the
loop-count predictor shared by BF-Neural and ISL-TAGE, and the TAGE /
ISL-TAGE family (``repro.predictors.tage``).
"""

from repro.predictors.base import BranchPredictor
from repro.predictors.static_ import AlwaysTaken, Bimodal
from repro.predictors.filter import FilterPredictor
from repro.predictors.gshare import GShare
from repro.predictors.perceptron import GlobalPerceptron
from repro.predictors.piecewise import PiecewiseLinear
from repro.predictors.snap import ScaledNeural
from repro.predictors.loop import LoopPredictor
from repro.predictors.tage import ISLTage, Tage, TageConfig

__all__ = [
    "AlwaysTaken",
    "Bimodal",
    "BranchPredictor",
    "FilterPredictor",
    "GShare",
    "GlobalPerceptron",
    "ISLTage",
    "LoopPredictor",
    "PiecewiseLinear",
    "ScaledNeural",
    "Tage",
    "TageConfig",
]
