"""Fermi-class GPU simulator: device model, memory, execution, timing."""

from repro.gpusim.coalescing import (CoalescingReport,
                                     coalescing_efficiency,
                                     effective_bytes_per_warp,
                                     is_poorly_coalesced,
                                     transactions_per_warp)
from repro.gpusim.device import (TESLA_C2050, TESLA_M2090, TINY_DEVICE,
                                 DeviceSpec, get_device)
from repro.gpusim.executor import KernelExecutor, execute_kernel
from repro.gpusim.kernel import DEFAULT_BLOCK, Kernel, KernelDescriptor
from repro.gpusim.memory import DeviceBuffer, MemoryManager, MemorySpace
from repro.gpusim.occupancy import (Occupancy, block_shape_occupancy,
                                    compute_occupancy,
                                    latency_hiding_factor)
from repro.gpusim.profiler import (LaunchRecord, Profiler, TransferRecord,
                                   chrome_trace_document, dump_chrome_trace)
from repro.gpusim.codegen import (compiled_program_to_cuda, expr_to_c,
                                  kernel_to_cuda)
from repro.gpusim.multigpu import (KEENELAND_IB, Interconnect,
                                   ScalingPoint, ScalingSweep,
                                   device_timelines, scaling_sweep,
                                   sweep_chrome_document)
from repro.gpusim.runtime import CudaRuntime
from repro.gpusim.trace import (AuditRow, MemoryTrace, TracingExecutor,
                                audit_kernel, render_audit)
from repro.gpusim.timing import (KernelTiming, TimingConfig, price_kernel,
                                 price_transfer)

__all__ = [
    "DeviceSpec", "get_device", "TESLA_M2090", "TESLA_C2050", "TINY_DEVICE",
    "MemorySpace", "DeviceBuffer", "MemoryManager",
    "transactions_per_warp", "effective_bytes_per_warp", "CoalescingReport",
    "coalescing_efficiency", "is_poorly_coalesced",
    "Occupancy", "compute_occupancy", "block_shape_occupancy",
    "latency_hiding_factor",
    "Kernel", "KernelDescriptor", "DEFAULT_BLOCK",
    "KernelExecutor", "execute_kernel",
    "KernelTiming", "TimingConfig", "price_kernel", "price_transfer",
    "Profiler", "LaunchRecord", "TransferRecord",
    "chrome_trace_document", "dump_chrome_trace",
    "CudaRuntime",
    "kernel_to_cuda", "compiled_program_to_cuda", "expr_to_c",
    "Interconnect", "KEENELAND_IB", "ScalingPoint", "ScalingSweep",
    "scaling_sweep", "device_timelines", "sweep_chrome_document",
    "MemoryTrace", "TracingExecutor", "AuditRow", "audit_kernel",
    "render_audit",
]
