"""Kernel objects: what a directive compiler emits.

A :class:`Kernel` bundles the IR loop nest to execute, which loop indices
are mapped to the GPU thread grid, the launch geometry, and the
memory-space / tiling decisions the compiler made.  From those it derives
a :class:`KernelDescriptor` — the static summary the timing model prices.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import IRError, LaunchError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import MemorySpace
from repro.ir.analysis.access import (AccessPattern, AccessSummary, Columns,
                                      column_item, summarize_accesses,
                                      trip_column)
from repro.ir.analysis.metrics import BodyTerms, body_work
from repro.ir.analysis.regionmemo import block_digest, memoized
from repro.ir.program import Function, numpy_dtype
from repro.ir.stmt import (Block, CallStmt, For, PointerArith, Stmt,
                           as_block)
from repro.ir.transforms.tiling import TilingDecision

#: default threads per block for compiler-generated kernels
DEFAULT_BLOCK = 256


@dataclass(frozen=True)
class KernelDescriptor:
    """Static launch summary consumed by :mod:`repro.gpusim.timing`."""

    name: str
    total_threads: int
    block_threads: int
    flops_per_thread: float
    divergence: float
    access: AccessSummary
    smem_per_block: int = 0
    regs_per_thread: int = 24
    dtype: str = "double"
    placements: Mapping[str, MemorySpace] = field(default_factory=dict)
    tiling: Sequence[TilingDecision] = ()

    @property
    def grid_blocks(self) -> int:
        return max(1, math.ceil(self.total_threads / self.block_threads))


def _symbolic_stage(kernel: "Kernel",
                    array_extents: Mapping[str, Sequence[Optional[int]]],
                    ) -> BodyTerms:
    """Everything a descriptor needs except one launch's trip counts."""
    orientation_patterns = {
        name: (AccessPattern.STRIDED if orient == "row"
               else AccessPattern.COALESCED)
        for name, orient in kernel.private_orientations.items()
        if orient in ("row", "column")
    }
    return BodyTerms(
        summarize_accesses(
            kernel.body, kernel.thread_vars, array_extents,
            indirect_carriers=kernel.indirect_carriers,
            monotone_carriers=kernel.monotone_carriers,
            local_patterns=orientation_patterns,
            pattern_overrides=kernel.pattern_overrides, symbolic=True),
        body_work(kernel.body, kernel.thread_vars, symbolic=True))


class Kernel:
    """An executable GPU kernel produced by one of the model compilers.

    Parameters
    ----------
    body:
        The loop nest, *including* the parallel loops that become the
        thread grid.
    thread_vars:
        The loop indices mapped to the grid, outermost first.  The last
        one is ``threadIdx.x`` (fastest varying across a warp).  They must
        name parallel ``For`` loops forming the outermost nest of
        ``body``.
    arrays / scalars:
        Names of device arrays and scalar parameters the kernel uses.
    block_threads:
        Threads per block chosen by the compiler (or tuner).
    placements:
        Per-array memory-space decisions (constant/texture caching).
    tiling:
        Shared-memory tiling decisions (affect timing, not values).
    indirect_carriers:
        Arrays whose *contents* are thread-dependent indices (frontier
        queues) for the access analysis.
    """

    def __init__(self, name: str, body: Stmt | Sequence[Stmt],
                 thread_vars: Sequence[str],
                 arrays: Sequence[str], scalars: Sequence[str] = (),
                 block_threads: int = DEFAULT_BLOCK,
                 dtype: str = "double",
                 placements: Optional[Mapping[str, MemorySpace]] = None,
                 tiling: Sequence[TilingDecision] = (),
                 regs_per_thread: int = 24,
                 indirect_carriers: Sequence[str] = (),
                 monotone_carriers: Sequence[str] = (),
                 pattern_overrides: Optional[Mapping[str, "AccessPattern"]] = None,
                 private_orientations: Optional[Mapping[str, str]] = None) -> None:
        if not thread_vars:
            raise IRError(f"kernel {name!r} needs at least one thread index")
        self.name = name
        self.body = as_block(body)
        self.thread_vars = tuple(thread_vars)
        self.arrays = tuple(arrays)
        self.scalars = tuple(scalars)
        self.block_threads = int(block_threads)
        self.dtype = dtype
        self.placements = dict(placements or {})
        self.tiling = tuple(tiling)
        self.regs_per_thread = regs_per_thread
        self.indirect_carriers = tuple(indirect_carriers)
        #: 1-D index arrays with near-identity contents (clamping maps):
        #: subscripts through them classify as if by the index itself
        self.monotone_carriers = tuple(monotone_carriers)
        #: per-array access-pattern overrides recording transformation
        #: effects the compiler could not express structurally (e.g.
        #: OpenMPC loop collapsing making CSR traffic coalesced)
        self.pattern_overrides = dict(pattern_overrides or {})
        #: private-array expansion orientation: "row" (strided), "column"
        #: (coalesced, the matrix-transpose technique) — arrays absent
        #: from the mapping are register-resident (no traffic)
        self.private_orientations = dict(private_orientations or {})
        for name, orient in self.private_orientations.items():
            if orient not in ("row", "column", "register"):
                raise IRError(
                    f"kernel {name!r}: bad expansion orientation {orient!r}")
        self._validate_thread_nest()

    # ------------------------------------------------------------------
    def _validate_thread_nest(self) -> None:
        """The thread vars must name the outermost parallel loop nest."""
        loops = self.grid_loops()
        found = tuple(l.var for l in loops)
        if found != self.thread_vars:
            raise IRError(
                f"kernel {self.name!r}: thread_vars {self.thread_vars} do "
                f"not match the outermost parallel nest {found}")

    def grid_loops(self) -> list[For]:
        """The parallel loops mapped to the grid, outermost first."""
        memo = self.__dict__.get("_grid_loops")
        if memo is None:
            memo = self._grid_loops = tuple(self._find_grid_loops())
        return list(memo)

    def _find_grid_loops(self) -> list[For]:
        loops: list[For] = []
        node: Stmt = self.body

        def outer_parallel(b: Stmt) -> Optional[For]:
            if isinstance(b, Block):
                fors = [s for s in b.stmts if isinstance(s, For) and s.parallel]
                if len(fors) == 1:
                    return fors[0]
                return None
            if isinstance(b, For) and b.parallel:
                return b
            return None

        current = outer_parallel(node)
        while current is not None and len(loops) < len(self.thread_vars):
            loops.append(current)
            current = outer_parallel(current.body)
        return loops

    # ------------------------------------------------------------------
    def grid_extents(self, columns: Columns) -> list:
        """Each thread loop's extent in the launches of ``columns``, as
        an int64 column, outermost first.

        Raises :class:`LaunchError` when one does not resolve in some
        launch.  Callers silence numpy's floating-point warnings.
        """
        extents = []
        for loop in self.grid_loops():
            extent, exact = trip_column(loop, columns)
            if not exact.all():
                bound = sorted(name for name, (_, where) in columns.items()
                               if np.all(where))
                raise LaunchError(
                    f"kernel {self.name!r}: cannot resolve extent of loop "
                    f"{loop.var!r} from bindings {bound}")
            extents.append(extent.astype(np.int64))
        return extents

    # ------------------------------------------------------------------
    @property
    def body_digest(self) -> str:
        """sha256 of the body's digest and the thread vars, memoized.

        Built on the body object's cached
        :func:`~repro.ir.analysis.regionmemo.block_digest`, so a body is
        serialized once however many kernels or analyses digest it;
        :attr:`content_key`, :func:`kernel_ir_hash` and tv's memos build
        on it.  Kernels are not mutated after construction.
        """
        digest = self.__dict__.get("_body_digest")
        if digest is None:
            doc = {"body": block_digest(self.body),
                   "thread_vars": list(self.thread_vars)}
            digest = self._body_digest = hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()).hexdigest()
        return digest

    @property
    def content_key(self) -> str:
        """Digest of everything the access and work analyses read.

        The body and thread vars (:attr:`body_digest`), the indirect and
        monotone carriers, the pattern overrides and the private
        orientations; not the name, which only labels descriptors and
        timings.  Memoized: kernels are not mutated after construction.
        """
        key = self.__dict__.get("_content_key")
        if key is None:
            doc = {
                "body": self.body_digest,
                "indirect": list(self.indirect_carriers),
                "monotone": list(self.monotone_carriers),
                "overrides": {name: pattern.value for name, pattern
                              in sorted(self.pattern_overrides.items())},
                "orientations": dict(sorted(
                    self.private_orientations.items())),
            }
            key = self._content_key = hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()).hexdigest()
        return key

    def stage(self, array_extents: Mapping[str, Sequence[Optional[int]]],
              ) -> BodyTerms:
        """The symbolic stage of a launch over ``array_extents``: it runs
        once per (content key, array extents) and is shared by every
        kernel of that content."""
        extents = tuple(sorted((name, tuple(ext))
                               for name, ext in array_extents.items()))
        return memoized("stage", (self.content_key, extents),
                        lambda: _symbolic_stage(self, array_extents))

    def describe(self, bindings: Mapping[str, float],
                 array_extents: Mapping[str, Sequence[Optional[int]]],
                 ) -> KernelDescriptor:
        """The static descriptor the timing model prices.

        Two stages.  The symbolic one (:meth:`stage`) runs once per
        (content key, array extents).  The numeric one, on every call,
        is the one launch of :meth:`describe_columns`; a pricing pass
        calls this for each kernel's first distinct launch.
        """
        stage = self.stage(array_extents)
        return self.descriptor(
            stage, self.describe_columns(stage, [stage.bound_key(bindings)]),
            0)

    def describe_columns(self, stage: BodyTerms,
                         keys: Sequence[tuple]) -> tuple:
        """The numeric stage of the launches with loop-bound keys
        ``keys`` (:meth:`BodyTerms.bound_key`), at once.

        Returns ``(total_threads, flops_per_thread, divergence,
        counts)``, the descriptor fields that vary between launches,
        with one count per reference of ``stage.access``: each a column
        of one entry per launch, or a value every launch shares.  Raises
        :meth:`grid_extents`' :class:`LaunchError`.
        """
        columns = stage.access.nest.key_columns(keys)
        total = np.ones(len(keys), dtype=np.int64)
        with np.errstate(all="ignore"):
            work, access = stage.evaluate(columns, len(keys))
            for extent in self.grid_extents(columns):
                total = total * extent
        return (np.maximum(1, total), work.flops, work.divergence,
                [count for _, count in access.refs])

    def descriptor(self, stage: BodyTerms, columns: tuple,
                   row: int) -> KernelDescriptor:
        """Launch ``row`` of :meth:`describe_columns`' ``columns``."""
        total, flops, divergence, counts = columns
        return KernelDescriptor(
            name=self.name,
            total_threads=column_item(total, row),
            block_threads=self.block_threads,
            flops_per_thread=column_item(flops, row),
            divergence=column_item(divergence, row),
            access=AccessSummary([
                (cls, column_item(count, row))
                for (cls, _), count in zip(stage.access.refs, counts)]),
            smem_per_block=sum(t.smem_bytes_per_block for t in self.tiling),
            regs_per_thread=self.regs_per_thread,
            dtype=self.dtype,
            placements=self.placements,
            tiling=self.tiling,
        )

    def __getstate__(self) -> dict:
        # pickles (pool-worker store deltas) and deep copies start with
        # empty memos: a copy whose body is then replaced must not
        # answer from the original's content hashes (and so stages)
        state = self.__dict__.copy()
        for memo in ("_body_digest", "_content_key", "_grid_loops",
                     "_private_bytes", "_ir_hash_memo"):
            state.pop(memo, None)
        return state

    def elem_bytes(self) -> int:
        return numpy_dtype(self.dtype).itemsize

    def private_global_bytes_per_thread(self) -> int:
        """Global-memory footprint of expanded private arrays, per thread.

        Private arrays expanded row- or column-wise live in device global
        memory (one slot per thread × extent); register-resident ones do
        not.  Multiplied by the launch's total thread count this is the
        allocation that overflows device memory in the EP story.
        """
        from repro.ir.stmt import LocalDecl

        total = self.__dict__.get("_private_bytes")
        if total is None:
            total = 0
            for stmt in self.body.walk():
                if isinstance(stmt, LocalDecl) and stmt.shape:
                    orient = self.private_orientations.get(stmt.name,
                                                           "register")
                    if orient in ("row", "column"):
                        n = 1
                        for s in stmt.shape:
                            n *= s
                        total += n * numpy_dtype(stmt.dtype).itemsize
            self._private_bytes = total
        return total

    def __repr__(self) -> str:
        return (f"Kernel({self.name}, grid over {self.thread_vars}, "
                f"block={self.block_threads})")


# ---------------------------------------------------------------------------
# IR hashing (the launch-memo key)
# ---------------------------------------------------------------------------

def _reachable_functions(body: Stmt, functions: Mapping[str, Function],
                         ) -> dict[str, Function]:
    """Every function of ``functions`` that ``body`` calls, transitively."""
    out: dict[str, Function] = {}
    pending = [body]
    while pending:
        node = pending.pop()
        for stmt in node.walk():
            if isinstance(stmt, CallStmt) and stmt.func in functions \
                    and stmt.func not in out:
                func = out[stmt.func] = functions[stmt.func]
                pending.append(func.body)
    return out


def kernel_ir_summary(kernel: Kernel,
                      functions: Optional[Mapping[str, Function]] = None,
                      ) -> tuple[str, bool]:
    """``(kernel_ir_hash, swaps pointers?)``, memoized on the kernel.

    The second item says whether the body or a reachable function swaps
    two arrays, which changes the buffer a name refers to rather than
    any array's contents.
    """
    funcs = dict(functions or {})
    memo = getattr(kernel, "_ir_hash_memo", None)
    sig = tuple(sorted((name, id(fn)) for name, fn in funcs.items()))
    if memo is not None and memo[0] == sig:
        return memo[1:3]
    reachable = sorted(_reachable_functions(kernel.body, funcs).items())
    doc = {
        "v": 2,
        "body": kernel.body_digest,
        "functions": {
            name: {"params": [(p.name, p.is_array, p.dtype)
                              for p in func.params],
                   "body": block_digest(func.body)}
            for name, func in reachable},
    }
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    swaps = any(isinstance(stmt, PointerArith)
                for body in [kernel.body] + [f.body for _, f in reachable]
                for stmt in body.walk())
    # the memo holds the functions, so no other object can take their ids
    kernel._ir_hash_memo = (  # type: ignore[attr-defined]
        sig, digest, swaps, funcs)
    return digest, swaps


def kernel_ir_hash(kernel: Kernel,
                   functions: Optional[Mapping[str, Function]] = None) -> str:
    """Content hash of everything that determines a kernel's *values*.

    The body and thread vars (:attr:`Kernel.body_digest`) and every
    function reachable from the body.  The kernel name is deliberately
    excluded (it only decorates error messages), and so are the
    carriers and overrides :attr:`Kernel.content_key` adds (they steer
    the analyses, not the values), so identically-shaped kernels from
    different ports share one launch key.  Memoized on the kernel
    object — bodies are immutable.
    """
    return kernel_ir_summary(kernel, functions)[0]
