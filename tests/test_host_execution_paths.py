"""Edge-path tests: host OpenMP execution, data-region residency, and
host-fallback synchronization inside an ExecutableProgram."""

import numpy as np
import pytest

from repro.cpu.openmp import _host_kernels, run_program_host, run_region_host
from repro.ir.builder import (accum, aref, assign, block, critical, pfor,
                              sfor, v)
from repro.ir.program import ArrayDecl, ParallelRegion, Program, ScalarDecl
from repro.models import (DataRegionSpec, ExecutableProgram, PortSpec,
                          get_compiler)


class TestHostOpenMP:
    def test_serial_statements_between_loops(self):
        region = ParallelRegion("r", block(
            pfor("i", 0, v("n"), assign(aref("b", v("i")), 2.0)),
            assign(aref("s", 0), 100.0),  # master/serial statement
            pfor("i", 0, v("n"), accum(aref("s", 0), aref("b", v("i")))),
        ))
        arrays = {"b": np.zeros(4), "s": np.zeros(1)}
        run_region_host(region, arrays, {"n": 4})
        assert arrays["s"][0] == 108.0

    def test_critical_section_on_host(self):
        region = ParallelRegion("r", pfor(
            "i", 0, v("n"),
            critical(accum(aref("h", aref("c", v("i"))), 1.0))))
        arrays = {"c": np.array([0, 0, 1], dtype=np.int64),
                  "h": np.zeros(2)}
        run_region_host(region, arrays, {"n": 3})
        np.testing.assert_allclose(arrays["h"], [2, 1])

    def test_host_kernels_are_keyed_on_content(self):
        """Equal regions share one kernel list; a region differing in
        name gets kernels named after it."""
        def region(name):
            return ParallelRegion(name, pfor("i", 0, v("n"),
                                             assign(aref("b", v("i")), 2.0)))

        names = (("b",), ("n",))
        first = _host_kernels(region("r"), *names)
        assert _host_kernels(region("r"), *names) is first
        renamed = _host_kernels(region("q"), *names)
        assert [k.name for k in renamed] == ["q__i"]
        assert [k.name for k in first] == ["r__i"]

    def test_run_program_host_in_order(self):
        p = Program(
            "p",
            [ArrayDecl("x", ("n",))],
            [ScalarDecl("n", "int")],
            [ParallelRegion("fill", pfor("i", 0, v("n"),
                                         assign(aref("x", v("i")), 1.0))),
             ParallelRegion("double", pfor("i", 0, v("n"),
                                           accum(aref("x", v("i")),
                                                 aref("x", v("i")))))])
        arrays = {"x": np.zeros(3)}
        run_program_host(p, arrays, {"n": 3})
        np.testing.assert_allclose(arrays["x"], 2.0)


class TestDataRegionResidency:
    def _program(self):
        r1 = ParallelRegion("produce", pfor(
            "i", 0, v("n"), assign(aref("b", v("i")),
                                   aref("a", v("i")) + 1.0)))
        # a critical region every non-OpenMPC model sends to the host
        r2 = ParallelRegion("consume", pfor(
            "i", 0, v("n"),
            critical(accum(aref("h", aref("c", v("i"))),
                           aref("b", v("i"))))))
        r3 = ParallelRegion("finish", pfor(
            "i", 0, v("n"), accum(aref("b", v("i")), 10.0)))
        return Program(
            "p",
            [ArrayDecl("a", ("n",), intent="in"),
             ArrayDecl("b", ("n",), intent="out"),
             ArrayDecl("c", ("n",), dtype="int", intent="in"),
             ArrayDecl("h", ("n",), intent="out")],
            [ScalarDecl("n", "int")], [r1, r2, r3])

    def test_host_fallback_sees_device_results_and_feeds_back(self):
        program = self._program()
        data = DataRegionSpec("d", regions=("produce", "consume",
                                            "finish"),
                              copyin=("a", "c"), copyout=("b", "h"))
        compiled = get_compiler("PGI Accelerator").compile_program(
            PortSpec(model="PGI Accelerator", program=program,
                     data_regions=(data,)))
        assert compiled.results["produce"].translated
        assert not compiled.results["consume"].translated
        ex = ExecutableProgram(compiled)
        a = np.arange(4.0)
        arrays = {"a": a, "b": np.zeros(4),
                  "c": np.array([0, 1, 0, 1], dtype=np.int64),
                  "h": np.zeros(4)}
        ex.bind_arrays(arrays)
        ex.run_region("produce", {"n": 4})   # GPU
        ex.run_region("consume", {"n": 4})   # host fallback
        ex.run_region("finish", {"n": 4})    # GPU again
        ex.close_data_regions()
        # host consume saw the device-produced b (a+1)...
        np.testing.assert_allclose(arrays["h"], [1 + 3, 2 + 4, 0, 0])
        # ...and the final GPU region kept working on a consistent b
        np.testing.assert_allclose(arrays["b"], a + 11.0)
        assert ex.host_time_s > 0

    def test_repeated_region_reuses_residency(self):
        program = self._program()
        data = DataRegionSpec("d", regions=("produce",),
                              copyin=("a",), copyout=("b",))
        compiled = get_compiler("PGI Accelerator").compile_program(
            PortSpec(model="PGI Accelerator", program=program,
                     data_regions=(data,)))
        ex = ExecutableProgram(compiled)
        arrays = {"a": np.ones(4), "b": np.zeros(4),
                  "c": np.zeros(4, dtype=np.int64), "h": np.zeros(4)}
        ex.bind_arrays(arrays)
        for _ in range(5):
            ex.run_region("produce", {"n": 4})
        ex.close_data_regions()
        htod_a = [t for t in ex.rt.profiler.transfers
                  if t.array == "a" and t.direction == "htod"]
        assert len(htod_a) == 1  # copied in exactly once
