"""Readable text rendering of region state for pass snapshots.

Two layers: :func:`render_ir` unparses a statement tree into indented
pseudo-C (one construct per line, so unified diffs between consecutive
pass snapshots are small and meaningful), and :func:`render_state`
appends the accumulated lowering decisions — tiling, access-pattern
overrides, private-array orientations — so passes that change *decisions*
rather than IR (automatic tiling, private-array placement) still produce
a visible diff in ``repro-harness passes``.  A snapshot is rendered when
a :class:`~repro.pipeline.core.PassRecord`'s ``state_text`` is first
read, from the IR and decisions the record keeps.
"""

from __future__ import annotations

from typing import Iterable

from repro.gpusim.codegen import expr_to_c
from repro.ir.stmt import (Assign, Barrier, Block, CallStmt, Critical, For,
                           If, LocalDecl, PointerArith, Return, Stmt, While)

_INDENT = "  "


def _lines(stmt: Stmt, depth: int) -> Iterable[str]:
    pad = _INDENT * depth
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from _lines(child, depth)
    elif isinstance(stmt, For):
        heads = []
        if stmt.parallel:
            heads.append("parallel")
        if stmt.collapse > 1:
            heads.append(f"collapse({stmt.collapse})")
        for rc in stmt.reductions:
            heads.append(f"reduction({rc.op}:{rc.var})")
        head = (" ".join(heads) + " ") if heads else ""
        step = expr_to_c(stmt.step)
        step_s = "" if step == "1" else f"; step {step}"
        yield (f"{pad}{head}for {stmt.var} in "
               f"[{expr_to_c(stmt.lower)}, {expr_to_c(stmt.upper)})"
               f"{step_s} {{")
        yield from _lines(stmt.body, depth + 1)
        yield f"{pad}}}"
    elif isinstance(stmt, While):
        yield f"{pad}while ({expr_to_c(stmt.cond)}) {{"
        yield from _lines(stmt.body, depth + 1)
        yield f"{pad}}}"
    elif isinstance(stmt, If):
        yield f"{pad}if ({expr_to_c(stmt.cond)}) {{"
        yield from _lines(stmt.then_body, depth + 1)
        if stmt.else_body is not None:
            yield f"{pad}}} else {{"
            yield from _lines(stmt.else_body, depth + 1)
        yield f"{pad}}}"
    elif isinstance(stmt, Assign):
        op = f"{stmt.op}=" if stmt.op else "="
        yield (f"{pad}{expr_to_c(stmt.target)} {op} "
               f"{expr_to_c(stmt.value)};")
    elif isinstance(stmt, LocalDecl):
        dims = "".join(f"[{s}]" for s in stmt.shape)
        init = f" = {expr_to_c(stmt.init)}" if stmt.init is not None else ""
        yield f"{pad}{stmt.dtype} {stmt.name}{dims}{init};"
    elif isinstance(stmt, Critical):
        yield f"{pad}critical {{"
        yield from _lines(stmt.body, depth + 1)
        yield f"{pad}}}"
    elif isinstance(stmt, Barrier):
        yield f"{pad}barrier;"
    elif isinstance(stmt, CallStmt):
        args = ", ".join(expr_to_c(a) for a in stmt.args)
        yield f"{pad}{stmt.func}({args});"
    elif isinstance(stmt, Return):
        val = f" {expr_to_c(stmt.value)}" if stmt.value is not None else ""
        yield f"{pad}return{val};"
    elif isinstance(stmt, PointerArith):
        yield f"{pad}ptr-{stmt.kind}({', '.join(stmt.operands)});"
    else:  # future node kinds degrade to repr, never crash a snapshot
        yield f"{pad}{stmt!r};"


def render_ir(stmt: Stmt) -> str:
    """Indented pseudo-C text of a statement tree."""
    return "\n".join(_lines(stmt, 0))


def render_state(ir: Block, decisions: tuple) -> str:
    """IR text plus the lowering decisions, given as
    :meth:`~repro.pipeline.core.PassContext.decisions_key` values."""
    tiling, overrides, orientations, kernels = decisions
    parts = [render_ir(ir)]
    lines: list[str] = []
    for td in tiling:
        dims = "x".join(str(d) for d in td.tile_dims)
        lines.append(f"tiling {dims} over {', '.join(td.arrays)} "
                     f"(smem {td.smem_bytes_per_block} B/block)")
    for name, pattern in overrides:
        lines.append(f"access-pattern override: {name} -> "
                     f"{getattr(pattern, 'name', pattern)}")
    for name, orient in orientations:
        lines.append(f"private expansion: {name} -> {orient}")
    for name, thread_vars, block_threads in kernels:
        lines.append(f"kernel {name}: grid over "
                     f"({', '.join(thread_vars)}), "
                     f"{block_threads} threads/block")
    if lines:
        parts.append("// decisions:")
        parts.extend(f"//   {d}" for d in lines)
    return "\n".join(parts)
