"""The launch memo: run each distinct kernel launch once.

Many directive models lower a loop nest to the same kernel, so a
validation sweep interprets, and a locality sweep traces, the same
launch on the same inputs again and again.  A :class:`LaunchMemo` maps
everything that determines a launch (:func:`launch_key`) to what the
launch did: the elements it changed, as flat indices and values, and
an optional payload (the locality replay's cache report).  A repeat
writes those elements back and returns the payload without running the
kernel.

Each user owns a memo for one scope: ``Benchmark._run`` one per
(benchmark, scale, seed) beside its workload, handed to the runtime's
launches and to the host fallback; the locality suite one per
(benchmark, scale) for its traced replays.  Callers that pass no memo
run every launch.

Never stored:

* a launch that raises;
* a kernel whose body or reachable functions swap pointers, which
  changes the name→buffer map rather than array contents;
* a launch whose arrays total more than :data:`MAX_LAUNCH_BYTES`, which
  is not hashed or copied at all, so paper-scale executing runs cost
  what they did without a memo.
"""

from __future__ import annotations

import hashlib
from typing import (Callable, Mapping, MutableMapping, Optional, Sequence,
                    TypeVar)

import numpy as np

from repro.gpusim.kernel import Kernel, kernel_ir_summary
from repro.ir.program import Function

__all__ = ["LaunchMemo", "MAX_LAUNCH_BYTES", "digest", "launch_key"]

#: launches whose arrays total more bytes than this are never memoized
#: (every test-scale launch of the suite stays under 0.2 MB; paper-scale
#: ones other than EP's are megabytes)
MAX_LAUNCH_BYTES = 1 << 19

Payload = TypeVar("Payload")


def digest(arr: np.ndarray) -> bytes:
    """sha256 of an array's dtype, shape and C-order bytes."""
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr))
    return h.digest()


def launch_key(kernel: Kernel, arrays: Mapping[str, np.ndarray],
               scalars: Mapping[str, object],
               functions: Optional[Mapping[str, Function]],
               executor: type, extra: Sequence = ()) -> Optional[tuple]:
    """Everything a launch's post-state depends on, or None for a launch
    over :data:`MAX_LAUNCH_BYTES` or a kernel that swaps pointers.

    The kernel's body, thread vars and reachable functions
    (:func:`~repro.gpusim.kernel.kernel_ir_hash`; not its name, which
    only labels errors),
    the executor class that runs it, every scalar by name, type and
    ``repr`` (so ``0``, ``0.0``, ``-0.0`` and ``True`` stay apart),
    every array by name and :func:`digest`, and the caller's ``extra``
    fields.
    """
    if sum(a.nbytes for a in arrays.values()) > MAX_LAUNCH_BYTES:
        return None
    ir_hash, swaps = kernel_ir_summary(kernel, functions)
    if swaps:
        return None
    return (ir_hash, executor,
            tuple(sorted((name, type(v).__name__, repr(v))
                         for name, v in scalars.items())),
            tuple(sorted((name, digest(a)) for name, a in arrays.items())),
            tuple(extra))


def _bits(arr: np.ndarray) -> np.ndarray:
    """The array's C-order elements as rows of raw bytes."""
    flat = np.ascontiguousarray(arr).reshape(-1)
    return flat.view(np.uint8).reshape(flat.size, flat.itemsize)


class LaunchMemo:
    """Post-states (changed elements) and payloads of distinct launches."""

    def __init__(self) -> None:
        #: launch key -> ({array: (flat indices, values)}, payload)
        self._entries: dict[tuple, tuple[dict, object]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def launch(self, run: Callable[[], Payload], kernel: Kernel,
               arrays: MutableMapping[str, np.ndarray],
               scalars: Mapping[str, object],
               functions: Optional[Mapping[str, Function]],
               executor: type, *extra) -> Payload:
        """``run()`` the launch in place over ``arrays``, or repeat a
        stored one; either way ``arrays`` ends in the launch's post-state
        and the launch's payload is returned."""
        key = launch_key(kernel, arrays, scalars, functions, executor, extra)
        if key is None:
            return run()
        hit = self._entries.get(key)
        if hit is not None:
            changes, payload = hit
            for name, (where, values) in changes.items():
                arrays[name].flat[where] = values
            return payload  # type: ignore[return-value]
        before = {name: _bits(arr.copy()) for name, arr in arrays.items()}
        payload = run()
        changes = {}
        for name, old in before.items():
            # int32 holds every index of an array within the budget
            where = np.flatnonzero(
                (_bits(arrays[name]) != old).any(axis=1)).astype(np.int32)
            if where.size:
                changes[name] = (where, arrays[name].flat[where])
        self._entries[key] = (changes, payload)
        return payload
