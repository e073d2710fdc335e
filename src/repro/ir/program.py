"""Program-level IR: arrays, functions, parallel regions, whole programs.

A :class:`Program` corresponds to one of the paper's thirteen OpenMP input
applications.  It declares its global arrays and scalars, its user-defined
functions, and an ordered list of :class:`ParallelRegion` objects — the
``#pragma omp parallel`` regions that the directive compilers attempt to
translate to GPU kernels.  Host-side control flow between regions (outer
convergence loops, input setup) lives in the benchmark drivers, which call
the compiled regions through :class:`repro.models.base.CompiledProgram`.

Array shapes are symbolic (names of size scalars) so the same program can
run at any problem size; shapes are resolved against the benchmark's
runtime bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from repro.errors import IRError, IRTypeError
from repro.ir.expr import Expr
from repro.ir.stmt import Block, For, ReductionClause, Stmt, as_block

#: dtype spellings accepted in declarations, mapped to NumPy dtypes.
DTYPES: Mapping[str, np.dtype] = {
    "double": np.dtype(np.float64),
    "float": np.dtype(np.float32),
    "int": np.dtype(np.int64),
}

ShapeDim = Union[int, str]


def numpy_dtype(name: str) -> np.dtype:
    """Resolve a declaration dtype spelling to a NumPy dtype."""
    try:
        return DTYPES[name]
    except KeyError:
        raise IRTypeError(f"unknown dtype {name!r}; known: {sorted(DTYPES)}") from None


@dataclass(frozen=True)
class ArrayDecl:
    """A program-level array: name, symbolic shape, dtype, and intent.

    ``intent`` is one of ``"in"`` / ``"out"`` / ``"inout"`` / ``"temp"``
    and feeds the data-transfer planners: ``in`` arrays must be copied to
    the device before first use, ``out``/``inout`` copied back.

    ``contiguous`` records whether the host allocation is one continuous
    block — OpenACC requires contiguous data in data clauses, and OpenMPC
    handles multi-dimensional arrays only when contiguous (Sections
    III-B2 / III-D2).
    """

    name: str
    shape: tuple[ShapeDim, ...]
    dtype: str = "double"
    intent: str = "inout"
    contiguous: bool = True
    #: the array holds a near-identity index map (Rodinia's iN[i]=i-1
    #: style clamping arrays): subscripts routed through it preserve
    #: coalescing.  Compilers discover this from the init code; we carry
    #: it as a declaration fact.
    monotone_content: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise IRTypeError("ArrayDecl needs a name")
        if self.intent not in ("in", "out", "inout", "temp"):
            raise IRTypeError(f"bad intent {self.intent!r} for array {self.name!r}")
        numpy_dtype(self.dtype)  # validate
        if len(self.shape) == 0:
            raise IRTypeError(f"array {self.name!r} needs at least one dimension")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def resolve_shape(self, sizes: Mapping[str, int]) -> tuple[int, ...]:
        """Resolve symbolic dimensions against runtime size bindings."""
        dims: list[int] = []
        for dim in self.shape:
            if isinstance(dim, int):
                dims.append(dim)
            else:
                try:
                    dims.append(int(sizes[dim]))
                except KeyError:
                    raise IRError(
                        f"array {self.name!r}: unbound size symbol {dim!r}"
                    ) from None
        return tuple(dims)

    def nbytes(self, sizes: Mapping[str, int]) -> int:
        """Total byte size at the given problem-size bindings."""
        n = 1
        for dim in self.resolve_shape(sizes):
            n *= dim
        return n * numpy_dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ScalarDecl:
    """A program-level scalar (problem size, physics constant, ...)."""

    name: str
    dtype: str = "double"
    intent: str = "in"

    def __post_init__(self) -> None:
        if not self.name:
            raise IRTypeError("ScalarDecl needs a name")
        numpy_dtype(self.dtype)


@dataclass(frozen=True)
class Param:
    """A formal parameter of a user function (array or scalar)."""

    name: str
    is_array: bool = False
    dtype: str = "double"


class Function:
    """A user-defined function that parallel-region code may call.

    Function calls inside offloaded regions are a key applicability
    differentiator (Section VI-A item 5): OpenMPC supports them through
    interprocedural analysis and procedure cloning; the other models need
    the callee to be simple enough to inline.
    """

    __slots__ = ("name", "params", "body", "inlinable")

    def __init__(self, name: str, params: Sequence[Param],
                 body: Union[Stmt, Sequence[Stmt]], inlinable: bool = True) -> None:
        if not name:
            raise IRTypeError("Function needs a name")
        self.name = name
        self.params = tuple(params)
        self.body = as_block(body)
        #: Whether a non-interprocedural compiler could inline this callee
        #: automatically (single basic block, no nested calls, bounded
        #: loops).  Benchmarks set this to reflect the paper's porting
        #: experience; the feature scanner cross-checks it.
        self.inlinable = bool(inlinable)

    def __repr__(self) -> str:
        return f"Function({self.name}/{len(self.params)})"


class ParallelRegion:
    """One OpenMP parallel region — the unit of Table II's coverage.

    Attributes
    ----------
    name:
        Unique (within the program) region identifier, e.g. ``"sprvv"``.
    body:
        The region body.  Work-sharing loops are ``For(parallel=True)``
        statements; anything else inside is redundantly executed by host
        threads in OpenMP semantics and must be handled by region
        splitting (OpenMPC) or rejected (other models).
    private:
        Region-level private variables.
    affine_hint:
        Benchmarks may mark regions whose array subscripts are affine; the
        R-Stream front end *verifies* this with the affine analysis rather
        than trusting it (a mismatch is a test failure).
    invocations:
        How many times the host driver executes this region per benchmark
        run (outer iteration count); used by the data-transfer planners to
        weigh redundant-transfer elimination.
    """

    __slots__ = ("name", "body", "private", "affine_hint", "invocations")

    def __init__(self, name: str, body: Union[Stmt, Sequence[Stmt]],
                 private: Sequence[str] = (), affine_hint: bool = False,
                 invocations: int = 1) -> None:
        if not name:
            raise IRTypeError("ParallelRegion needs a name")
        self.name = name
        self.body = as_block(body)
        self.private = tuple(private)
        self.affine_hint = bool(affine_hint)
        self.invocations = int(invocations)
        if self.invocations < 1:
            raise IRError(f"region {name!r}: invocations must be >= 1")

    def worksharing_loops(self) -> list[For]:
        """The outermost ``omp for`` loops directly inside this region."""
        found: list[For] = []

        def scan(stmt: Stmt) -> None:
            if isinstance(stmt, For) and stmt.parallel:
                found.append(stmt)
                return  # nested parallel loops belong to this work-share
            for child in stmt.child_stmts():
                scan(child)

        scan(self.body)
        return found

    def __repr__(self) -> str:
        return f"ParallelRegion({self.name})"


class Program:
    """A whole OpenMP input application.

    ``regions`` are ordered as the host driver invokes them; duplicate
    region names are rejected because coverage accounting keys on them.
    """

    __slots__ = ("name", "arrays", "scalars", "functions", "regions",
                 "domain", "driver_lines")

    def __init__(self, name: str, arrays: Sequence[ArrayDecl],
                 scalars: Sequence[ScalarDecl],
                 regions: Sequence[ParallelRegion],
                 functions: Sequence[Function] = (),
                 domain: str = "", driver_lines: int = 0) -> None:
        if not name:
            raise IRTypeError("Program needs a name")
        self.name = name
        self.arrays = {a.name: a for a in arrays}
        self.scalars = {s.name: s for s in scalars}
        self.functions = {f.name: f for f in functions}
        if len(self.arrays) != len(arrays):
            raise IRError(f"program {name!r}: duplicate array declarations")
        names = [r.name for r in regions]
        if len(set(names)) != len(names):
            raise IRError(f"program {name!r}: duplicate region names")
        self.regions = tuple(regions)
        #: Application domain label (Medical Imaging, Bioinformatics, ...).
        self.domain = domain
        #: Source lines of the original program outside the computational
        #: regions (allocation, I/O, timing, verification drivers) — the
        #: Table II percentages are normalized against the *whole* input
        #: program, so this belongs in the denominator.
        self.driver_lines = int(driver_lines)

    def region(self, name: str) -> ParallelRegion:
        """Look up a parallel region by name."""
        for r in self.regions:
            if r.name == name:
                return r
        raise IRError(f"program {self.name!r} has no region {name!r}")

    def array(self, name: str) -> ArrayDecl:
        """Look up an array declaration by name."""
        try:
            return self.arrays[name]
        except KeyError:
            raise IRError(f"program {self.name!r} has no array {name!r}") from None

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    def serial_line_count(self) -> int:
        """Approximate source-line count of the computational code.

        The denominator of the Table II normalized code-size increase:
        region bodies plus function bodies plus one declaration line per
        array/scalar.
        """
        n = len(self.arrays) + len(self.scalars) + self.driver_lines
        for region in self.regions:
            n += 1 + region.body.line_count()
        for func in self.functions.values():
            n += 1 + func.body.line_count()
        return n

    def __repr__(self) -> str:
        return f"Program({self.name}, {self.num_regions} regions)"
