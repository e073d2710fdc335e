"""The region-analysis memo: each distinct per-region analysis runs once.

Directive models lower one source region to the same kernels, and lint,
tv, xfer and translate ask the same per-region questions of every port.
:func:`memoized` answers a repeat from one process-wide table, keyed by
content digests of everything the analysis reads (:func:`block_digest`,
:func:`program_digests`, ``Kernel.body_digest``), never by a name or an
object identity alone.  Each digest is computed once per IR object; IR
is not mutated after construction, and a deep copy or an unpickled
object is a new object, so a copy modified later hashes afresh.  Results
are shared, so no caller may mutate one.
:func:`~repro.models.cache.clear_compile_cache` empties the table.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, NamedTuple, TypeVar

from repro.ir.program import Program
from repro.ir.serialize import stmt_to_dict
from repro.ir.stmt import Block

T = TypeVar("T")

_MISSING = object()

#: every analysis :func:`memoized` ran, by (kind, content key)
_RESULTS: dict[tuple, object] = {}
#: each digested IR object's digest, by ``id``; the entry holds the
#: object, so its ``id`` cannot be reused while the entry lives
_DIGESTS: dict[int, tuple[object, object]] = {}


def memoized(kind: str, key: tuple, compute: Callable[[], T]) -> T:
    """``compute()`` once per distinct ``(kind, key)``; a repeat gets the
    stored result.  An analysis that raises is not stored.  Two threads
    that miss one key at once both compute it; the results are equal,
    and the later one is stored."""
    slot = (kind, key)
    value = _RESULTS.get(slot, _MISSING)
    if value is _MISSING:
        value = _RESULTS[slot] = compute()
    return value  # type: ignore[return-value]


def clear_region_memo() -> None:
    """Forget every memoized analysis and cached digest."""
    _RESULTS.clear()
    _DIGESTS.clear()


def _cached(obj, digest: Callable[[], T]) -> T:
    """``digest()`` once per IR object: a copy or an unpickled object is
    a new object and digests afresh."""
    entry = _DIGESTS.get(id(obj))
    if entry is None:
        entry = _DIGESTS[id(obj)] = (obj, digest())
    return entry[1]  # type: ignore[return-value]


def _sha256(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def block_digest(block: Block) -> str:
    """sha256 of the digests of the block's statements, each statement
    serialized once per object: a kernel body that wraps a region's
    loops reuses their digests."""
    return _cached(block, lambda: _sha256(
        [_cached(stmt, lambda: _sha256(stmt_to_dict(stmt)))
         for stmt in block.stmts]))


class ProgramDigests(NamedTuple):
    """The parts of a program a region analysis may read, each digested
    on its own, so an analysis keys only the parts it reads."""

    #: the visible array and scalar names
    names: str
    #: the array declarations
    arrays: str
    #: the functions: parameters, bodies, inlinability
    functions: str


def program_digests(program: Program) -> ProgramDigests:
    """The :class:`ProgramDigests` of ``program``.

    Regions are left out: a region analysis keys its own body, so ports
    that restructure one region still share the others' results.
    """
    return _cached(program, lambda: ProgramDigests(
        names=_sha256(sorted(set(program.arrays) | set(program.scalars))),
        arrays=_sha256(repr(list(program.arrays.values()))),
        functions=_sha256([(f.name, repr(f.params), f.inlinable,
                            stmt_to_dict(f.body))
                           for f in program.functions.values()])))
