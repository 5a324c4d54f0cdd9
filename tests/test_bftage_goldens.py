"""Bit-identity pins for the BF-TAGE family.

Mispredictions, provider hits (in first-appearance order) and the final
``state_hash`` of every BF-TAGE-family configuration on a few suite
traces, recorded once and asserted on every run.  Each configuration
runs twice per trace: straight through (streaming a checkpoint, which
must not perturb the run) and resumed into a fresh instance from that
checkpoint after a JSON round trip, on the scalar loop and again through
``kernel="auto"`` (the TAGE kernel wherever it supports the
configuration).  Any change to the BF-GHR, the BST, the fold/index path,
the table updates or the kernel's history side that is not
bit-identical fails here.

If a change to the predictor's behaviour is intentional, regenerate the
pins:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_bftage_goldens.py -q

and commit the updated ``tests/fixtures/bftage_goldens.json`` with the
change (say in the PR why the numbers moved).
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.bfneural_ideal import oracle_from_trace
from repro.core.bftage import BFISLTage, BFTage, BFTageConfig
from repro.sim import simulate
from repro.sim.metrics import SimCheckpoint
from repro.workloads import build_trace

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "bftage_goldens.json"

TRACES = ("SPEC03", "FP2", "INT4", "SERV3", "SERV5")
BRANCHES = 1_500
#: The straight run streams one checkpoint, at CUT; the resumed run starts there.
CUT = 800

CONFIGS = {
    **{
        f"bf-tage{n}": (lambda trace, n=n: BFTage(BFTageConfig.for_tables(n)))
        for n in range(1, 11)
    },
    "bf-isl-tage10": lambda trace: BFISLTage(BFTageConfig.for_tables(10)),
    "bf-tage4-probabilistic": lambda trace: BFTage(
        BFTageConfig(num_tables=4, probabilistic_bst=True)
    ),
    "bf-tage10-profile": lambda trace: BFTage(
        BFTageConfig.for_tables(10), bias_oracle=oracle_from_trace(trace)
    ),
}


def observe(config: str, trace, kernel: str = "scalar") -> tuple[dict, dict]:
    """(straight, resumed) observations of one configuration on one trace."""
    factory = CONFIGS[config]
    checkpoints = []
    straight_predictor = factory(trace)
    straight = simulate(
        straight_predictor,
        trace,
        track_providers=True,
        checkpoint_every=CUT,
        on_checkpoint=checkpoints.append,
        kernel=kernel,
    )
    checkpoint = SimCheckpoint.from_json(json.loads(json.dumps(checkpoints[0].to_json())))
    resumed_predictor = factory(trace)
    resumed = simulate(
        resumed_predictor, trace, track_providers=True, resume_from=checkpoint, kernel=kernel
    )
    return tuple(
        {
            "mispredictions": result.mispredictions,
            "provider_hits": [list(item) for item in result.provider_hits.items()],
            "state_hash": predictor.state_hash(),
        }
        for result, predictor in (
            (straight, straight_predictor),
            (resumed, resumed_predictor),
        )
    )


def _regenerate() -> dict:
    golden = {}
    for name in TRACES:
        trace = build_trace(name, BRANCHES)
        for config in CONFIGS:
            golden[f"{config}/{name}"], _ = observe(config, trace)
    lines = ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}" for key, value in golden.items())
    GOLDEN_PATH.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        return _regenerate()
    assert GOLDEN_PATH.exists(), f"{GOLDEN_PATH} is missing; regenerate with REPRO_REGEN_GOLDEN=1"
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_config_and_trace_is_pinned(golden):
    assert sorted(golden) == sorted(f"{c}/{t}" for c in CONFIGS for t in TRACES)


@pytest.mark.parametrize("name", TRACES)
def test_bftage_family_matches_golden(golden, name):
    trace = build_trace(name, BRANCHES)
    for config in CONFIGS:
        straight, resumed = observe(config, trace)
        expected = golden[f"{config}/{name}"]
        assert straight == expected, f"{config} on {name}, straight run"
        assert resumed == expected, f"{config} on {name}, resumed from JSON"


@pytest.mark.parametrize("name", TRACES)
def test_bftage_family_matches_golden_on_kernels(golden, name):
    """The same pins through ``kernel="auto"``: BF-TAGE-1..10 and
    BF-ISL-TAGE-10 run on the TAGE kernel, the probabilistic-BST and
    profile-assisted configurations on the scalar loop."""
    trace = build_trace(name, BRANCHES)
    for config in CONFIGS:
        straight, resumed = observe(config, trace, kernel="auto")
        expected = golden[f"{config}/{name}"]
        assert straight == expected, f"{config} on {name}, straight run on auto"
        assert resumed == expected, f"{config} on {name}, resumed from JSON on auto"
