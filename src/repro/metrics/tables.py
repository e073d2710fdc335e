"""The two pieces every per-model analysis rollup shares.

:func:`group_by` buckets suite records by model (or by translation
pair) in first-seen order, so a rollup's rows follow the suite's own
table order; :func:`render_table` lays the aggregated rows out as an
aligned text table — first column left-aligned, the numbers right.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence, TypeVar

R = TypeVar("R")
K = TypeVar("K", bound=Hashable)


def group_by(records: Iterable[R],
             key: Callable[[R], K]) -> list[tuple[K, list[R]]]:
    """``(key, records)`` buckets in the order each key first appears."""
    buckets: dict[K, list[R]] = {}
    for rec in records:
        buckets.setdefault(key(rec), []).append(rec)
    return list(buckets.items())


def render_table(headers: Sequence[str],
                 body: Sequence[Sequence[str]]) -> str:
    """Aligned text table: header, a dash rule, then one line per row."""
    widths = [max([len(head)] + [len(row[i]) for row in body])
              for i, head in enumerate(headers)]

    def fmt(cells: Sequence[str]) -> str:
        first = cells[0].ljust(widths[0])
        rest = "  ".join(c.rjust(w) for c, w in zip(cells[1:], widths[1:]))
        return f"{first}  {rest}"

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines)
