"""repro — K-DAG scheduling on functionally heterogeneous systems.

A full reproduction of *"Scheduling Functionally Heterogeneous Systems
with Utilization Balancing"* (He, Liu, Sun — IPDPS 2011): the K-DAG job
model, the online KGreedy algorithm and its competitive bounds, the
Multi-Queue Balancing (MQB) offline algorithm with approximate-
information variants, four comparison heuristics, the discrete-time
simulator (non-preemptive and preemptive), the paper's three workload
families, an experiment harness regenerating every figure of the
paper's evaluation, and a fault-tolerance subsystem (failure
injection, a fault-aware engine, robustness experiments) probing the
schedulers beyond the paper's fixed-capacity assumption.

Quickstart::

    import numpy as np
    from repro import (KDagBuilder, ResourceConfig, make_scheduler,
                       simulate)

    b = KDagBuilder(num_types=2)
    cpu = b.add_task(0, work=4.0)
    gpu = b.add_task(1, work=2.0)
    b.add_edge(cpu, gpu)
    job = b.build()

    result = simulate(job, ResourceConfig((2, 1)), make_scheduler("mqb"),
                      rng=np.random.default_rng(0))
    print(result.makespan, result.completion_time_ratio())
"""

from repro.core import (
    KDag,
    KDagBuilder,
    critical_path,
    lower_bound,
    span,
    total_work,
    type_work,
    work_per_processor,
)
from repro.system import (
    ResourceConfig,
    medium_system,
    sample_medium_system,
    sample_small_system,
    skewed,
    small_system,
)
from repro.sim import (
    ScheduleResult,
    ScheduleTrace,
    average_utilization,
    simulate,
    simulate_preemptive,
    type_busy_time,
    utilization_profile,
    validate_schedule,
)
from repro.schedulers import (
    MQB,
    DType,
    KGreedy,
    LSpan,
    MaxDP,
    PAPER_ALGORITHMS,
    Scheduler,
    ShiftBT,
    available_schedulers,
    make_scheduler,
)
from repro.faults import (
    ExponentialFaults,
    FaultScheduleResult,
    FaultTimeline,
    Outage,
    make_fault_model,
    simulate_with_faults,
    validate_fault_schedule,
)
from repro.obs import (
    EventStream,
    NULL_TELEMETRY,
    PhaseProfiler,
    Telemetry,
    TelemetrySnapshot,
    render_summary,
    write_chrome_trace,
)
from repro.resultcache import (
    ENGINE_REV,
    ResultStore,
    cache_enabled,
    open_store,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "KDag",
    "KDagBuilder",
    "type_work",
    "total_work",
    "span",
    "critical_path",
    "lower_bound",
    "work_per_processor",
    # system
    "ResourceConfig",
    "small_system",
    "medium_system",
    "sample_small_system",
    "sample_medium_system",
    "skewed",
    # sim
    "simulate",
    "simulate_preemptive",
    "ScheduleResult",
    "ScheduleTrace",
    "validate_schedule",
    "type_busy_time",
    "average_utilization",
    "utilization_profile",
    # schedulers
    "Scheduler",
    "KGreedy",
    "LSpan",
    "MaxDP",
    "DType",
    "ShiftBT",
    "MQB",
    "make_scheduler",
    "available_schedulers",
    "PAPER_ALGORITHMS",
    # faults
    "Outage",
    "FaultTimeline",
    "ExponentialFaults",
    "make_fault_model",
    "simulate_with_faults",
    "FaultScheduleResult",
    "validate_fault_schedule",
    # obs
    "Telemetry",
    "TelemetrySnapshot",
    "NULL_TELEMETRY",
    "EventStream",
    "PhaseProfiler",
    "render_summary",
    "write_chrome_trace",
    # resultcache
    "ENGINE_REV",
    "ResultStore",
    "cache_enabled",
    "open_store",
]
