"""Content-addressed fingerprints for campaign tasks.

The legacy ``.bfbp-cache`` keyed results by *display name*
(``"BF-Neural__FP1__30000.json"``), so editing a predictor's code or
config silently served stale MPKI.  Here a task's cache key is a digest
over everything the result depends on:

* the predictor's class, display name and ``storage_bits()``,
* its ``*Config`` dataclass contents (when it exposes ``.config``),
* the source code of every class in the predictor's MRO, of its
  component classes (the ``repro`` classes those modules import, such
  as the BST, recency stacks, loop predictor, history registers and
  TAGE tables, followed transitively) plus the simulator loop itself
  (so editing ``train()`` or a component invalidates results),
* the trace identity (suite name + branch budget for generated traces,
  file content digest for ``.bfbp`` files, full content digest for
  in-memory traces),
* whether provider attribution was requested, and
* for ``vectorized``/``auto`` runs, the source of the batch kernels
  (:data:`KERNEL_MODULES`), so editing a kernel invalidates its results.

Fingerprints are hex SHA-256 strings; equality of fingerprints is the
cache-hit criterion and inequality after any edit is what the
fingerprint-invalidation tests assert.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
from array import array

from repro.predictors.base import BranchPredictor
from repro.sim import simulator
from repro.trace.records import Trace

#: Per-class source digests (module files change rarely within a run).
_SOURCE_CACHE: dict[type, str] = {}

#: The modules a non-scalar kernel mode runs on top of the simulator.
KERNEL_MODULES = (
    "repro.sim.batchkernel",
    "repro.sim.bfkernel",
    "repro.sim.snapkernel",
    "repro.sim.tagekernel",
    "repro.common.tablestate",
)


def _canonical(data: object) -> str:
    """Deterministic JSON for dicts/dataclasses; ``repr`` as fallback."""
    return json.dumps(data, sort_keys=True, default=repr)


def source_modules(cls: type) -> list:
    """The modules a predictor class's results depend on: the simulator,
    the module of every class in its MRO, and the modules of its
    component classes, the ``repro`` classes those modules import (and,
    transitively, the classes the components' modules import)."""
    modules = [simulator]
    pending = [klass for klass in cls.__mro__ if klass not in (object, BranchPredictor)]
    while pending:
        module = inspect.getmodule(pending.pop(0))
        if module is None or module in modules:
            continue
        modules.append(module)
        for value in vars(module).values():
            if (
                inspect.isclass(value)
                and value.__module__.startswith("repro.")
                and value is not BranchPredictor
            ):
                pending.append(value)
    return modules


def source_fingerprint(cls: type) -> str:
    """Digest of the source files of :func:`source_modules`, cached per
    class.  Classes without retrievable source (builtins, REPL
    definitions) contribute their module name only."""
    cached = _SOURCE_CACHE.get(cls)
    if cached is not None:
        return cached
    result = _modules_digest(source_modules(cls))
    _SOURCE_CACHE[cls] = result
    return result


@functools.cache
def kernel_source_fingerprint() -> str:
    """Digest of the batch kernels' source files (:data:`KERNEL_MODULES`)."""
    return _modules_digest([importlib.import_module(name) for name in KERNEL_MODULES])


def _modules_digest(modules: list) -> str:
    digest = hashlib.sha256()
    seen: set[str] = set()
    for module in modules:
        if module.__name__ in seen:
            continue
        seen.add(module.__name__)
        digest.update(module.__name__.encode())
        try:
            source_file = inspect.getsourcefile(module)
            if source_file:
                with open(source_file, "rb") as handle:
                    digest.update(handle.read())
        except (OSError, TypeError):
            digest.update(b"<no source>")
    return digest.hexdigest()


def config_of(predictor: BranchPredictor) -> dict | None:
    """The predictor's ``*Config`` dataclass as a plain dict, if any."""
    config = getattr(predictor, "config", None)
    if config is not None and dataclasses.is_dataclass(config):
        return dataclasses.asdict(config)
    return None


def predictor_fingerprint(predictor: BranchPredictor) -> str:
    """Fingerprint one constructed predictor instance."""
    cls = type(predictor)
    parts = {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "name": predictor.name,
        "storage_bits": predictor.storage_bits(),
        "config": config_of(predictor),
        "source": source_fingerprint(cls),
    }
    return hashlib.sha256(_canonical(parts).encode()).hexdigest()


def trace_content_fingerprint(trace: Trace) -> str:
    """Digest over a trace's full content (pcs, outcomes, metadata)."""
    digest = hashlib.sha256()
    digest.update(trace.name.encode())
    digest.update(str(trace.instruction_count).encode())
    digest.update(array("Q", trace.pcs).tobytes())
    digest.update(bytes(bytearray(trace.outcomes)))
    return digest.hexdigest()


def task_fingerprint(
    predictor_fp: str,
    trace_identity: str,
    track_providers: bool,
    warmup_branches: int = 0,
    warm_source: str = "",
    kernel: str = "scalar",
) -> str:
    """Combine the predictor, trace and measurement mode into one key.

    ``warmup_branches`` and ``warm_source`` (the warm-share source's
    predictor fingerprint, empty for plain runs) change the measured
    result, so they are part of the key; the defaults keep fingerprints
    of plain runs identical to the pre-checkpoint scheme.

    ``kernel`` joins the key whenever it is not the scalar default: the
    vectorized batch kernel is bit-identical by contract, but the
    contract is enforced by differential tests, not by construction —
    distinct keys mean a kernel regression can never poison (or be
    masked by) the scalar cache, and ``auto`` runs never alias either.
    Those keys also carry :func:`kernel_source_fingerprint`, so a kernel
    edit never reuses results the old kernel computed; scalar keys do
    not depend on the kernels.
    """
    parts = f"{predictor_fp}|{trace_identity}|providers={int(track_providers)}"
    if warmup_branches or warm_source:
        parts += f"|warmup={warmup_branches}|warm_source={warm_source}"
    if kernel != "scalar":
        parts += f"|kernel={kernel}|kernel_source={kernel_source_fingerprint()}"
    return hashlib.sha256(parts.encode()).hexdigest()
