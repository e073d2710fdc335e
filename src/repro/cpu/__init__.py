"""Host CPU: serial cost model and OpenMP-semantics functional execution."""

from repro.cpu.host import KEENELAND_HOST, HostSpec, price_body_serial
from repro.cpu.openmp import run_program_host, run_region_host

__all__ = [
    "HostSpec", "KEENELAND_HOST", "price_body_serial",
    "run_region_host", "run_program_host",
]
