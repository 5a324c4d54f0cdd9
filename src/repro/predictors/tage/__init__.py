"""TAGE and ISL-TAGE, implemented from the published algorithms.

* ``components`` — the partially tagged predictor table.
* ``tage`` — conventional TAGE: a bimodal base backed by N partially
  tagged tables indexed with geometric history lengths, folded into one
  flat list of circular-shift registers (CSRs).
* ``isl`` — ISL-TAGE (Seznec, CBP-3): TAGE plus the loop predictor and
  statistical corrector.  The immediate-update mimicker is the identity
  in this trace-driven, immediate-update framework (see isl.py).
"""

from repro.predictors.tage.components import TaggedTable
from repro.predictors.tage.tage import Tage, TageConfig
from repro.predictors.tage.isl import ISLTage

__all__ = ["ISLTage", "Tage", "TageConfig", "TaggedTable"]
