"""Content-addressed fingerprints for campaign tasks.

A task's cache key is a digest over everything its result depends on:
the predictor's class, display name, ``storage_bits()`` and ``*Config``
contents; the code it runs (:func:`code_fingerprint`); the trace
identity (suite name + branch budget, or a content digest for files and
in-memory traces); whether provider attribution was requested; the
warmup and warm-share source; and the kernel mode, when not ``scalar``.

The code is every ``repro`` module reached through module-level
bindings from the predictor's module and the simulator and, for a
kernel mode, from its batch kernel's module (:func:`code_modules`).
It is digested as tokens, not bytes: comments, blank lines and
docstrings are dropped, so a prose edit keeps every key while a code
edit changes exactly the keys whose closure holds the module.  Keys
never depend on the standard library, so hosts on different Python
builds agree.  Equality of fingerprints is the cache-hit criterion.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import io
import itertools
import json
import sys
import tokenize
from array import array

from repro.predictors.base import BranchPredictor
from repro.sim import batchkernel, simulator
from repro.trace.records import Trace

#: Tokens that carry no code, and indentation digested by kind alone.
_PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.ENDMARKER}
_INDENTS = {tokenize.INDENT: "<indent>", tokenize.DEDENT: "<dedent>"}
#: Python 3.12+ splits an f-string into parts; it is digested whole.
_FSTRING_START = getattr(tokenize, "FSTRING_START", None)
_FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def code_modules(predictor: BranchPredictor, kernel: str = "scalar") -> tuple[str, ...]:
    """The modules whose code a result of ``predictor`` run in ``kernel``
    mode depends on, sorted: the predictor's module, the simulator's
    and, for a non-scalar mode, its batch kernel's module
    (:mod:`~repro.sim.batchkernel` when no kernel supports the
    predictor), plus every ``repro`` module those reach through
    module-level bindings (classes, functions, modules), transitively."""
    roots = [type(predictor).__module__, simulator.__name__]
    if kernel != "scalar":
        batch = batchkernel.kernel_for(predictor)
        roots.append(type(batch).__module__ if batch is not None else batchkernel.__name__)
    return _closure(tuple(roots))


@functools.cache
def _closure(roots: tuple[str, ...]) -> tuple[str, ...]:
    seen: set[str] = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        if name in seen or name not in roots and not name.startswith("repro."):
            continue
        seen.add(name)
        for value in vars(sys.modules[name]).values():
            if inspect.ismodule(value):
                pending.append(value.__name__)
            elif callable(value):
                pending.append(str(getattr(value, "__module__", "")))
    return tuple(sorted(seen))


def code_fingerprint(predictor: BranchPredictor, kernel: str = "scalar") -> str:
    """Digest of the names and code tokens of :func:`code_modules`."""
    digest = hashlib.sha256()
    for name in code_modules(predictor, kernel):
        digest.update(name.encode() + b"\0" + _module_digest(name))
    return digest.hexdigest()


@functools.cache
def _module_digest(name: str) -> bytes:
    """A module's code-token digest, once per process; a module without
    retrievable source (a REPL definition) digests as a marker."""
    try:
        with tokenize.open(inspect.getsourcefile(sys.modules[name])) as handle:
            source = handle.read()
    except (OSError, TypeError):
        return b"<no source>"
    return hashlib.sha256("\0".join(_code_tokens(source)).encode()).digest()


def _code_tokens(source: str) -> list[str]:
    """``source``'s code tokens: comments, blank lines and docstring
    statements (string literals alone) dropped, indentation reduced to
    its kind, and each f-string kept whole as its source text."""
    line_offsets = [0, *itertools.accumulate(map(len, io.StringIO(source)))]
    tokens, statement, depth = [], [], 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == _FSTRING_START:
            depth += 1
            if depth == 1:
                start = line_offsets[token.start[0] - 1] + token.start[1]
        elif depth:
            depth -= token.type == _FSTRING_END
            if not depth:
                text = source[start:line_offsets[token.end[0] - 1] + token.end[1]]
                statement.append(token._replace(type=tokenize.STRING, string=text))
        elif token.type in _INDENTS:
            tokens.append(_INDENTS[token.type])
        elif token.type == tokenize.NEWLINE:
            if any(part.type != tokenize.STRING for part in statement):
                tokens.extend([part.string for part in statement] + ["<newline>"])
            statement = []
        elif token.type not in _PROSE:
            statement.append(token)
    return tokens


def predictor_fingerprint(predictor: BranchPredictor, kernel: str = "scalar") -> str:
    """Fingerprint one constructed predictor instance as run in
    ``kernel`` mode (the mode decides which code it covers)."""
    cls = type(predictor)
    config = getattr(predictor, "config", None)
    parts = {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "name": predictor.name,
        "storage_bits": predictor.storage_bits(),
        "config": dataclasses.asdict(config) if dataclasses.is_dataclass(config) else None,
        "source": code_fingerprint(predictor, kernel),
    }
    return hashlib.sha256(json.dumps(parts, sort_keys=True, default=repr).encode()).hexdigest()


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
    ``predictor_fp`` comes from :func:`predictor_fingerprint` in the
    same mode, so only kernel-mode keys cover the predictor's kernel.
    """
    parts = f"{predictor_fp}|{trace_identity}|providers={int(track_providers)}"
    if warmup_branches or warm_source:
        parts += f"|warmup={warmup_branches}|warm_source={warm_source}"
    if kernel != "scalar":
        parts += f"|kernel={kernel}"
    return hashlib.sha256(parts.encode()).hexdigest()
