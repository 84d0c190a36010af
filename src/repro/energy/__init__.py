"""Energy- and busy-time-aware scheduling subsystem.

Layers:

* :mod:`repro.energy.models` — per-type :class:`PowerModel` declarations
  (busy/idle/sleep draws, idle-shutdown windows with wake latency) and
  the named configs the experiment sweeps;
* :mod:`repro.energy.metrics` — vectorized energy / busy-time / profit
  accounting over recorded schedule traces;
* :mod:`repro.energy.schedulers` — ``emqb[w=...]`` and
  ``kgreedy-consolidate[r=...]`` variants that trade makespan for
  energy, bit-identical to their bases when the knob is off.

The ``repro run energy`` experiment (:mod:`repro.experiments.energy`)
sweeps the paper's six algorithms plus the variants across power
configs and emits the energy/makespan Pareto front.
"""

from repro.energy.metrics import (
    active_interval_time,
    energy_breakdown,
    energy_delay_product,
    idle_gaps,
    schedule_profit,
    task_completion_times,
    total_energy,
)
from repro.energy.models import (
    POWER_CONFIGS,
    PowerModel,
    TypePower,
    available_power_configs,
    power_config,
)
from repro.energy.schedulers import (
    EMQB,
    KGreedyConsolidate,
    make_energy_scheduler,
)

__all__ = [
    "TypePower",
    "PowerModel",
    "POWER_CONFIGS",
    "power_config",
    "available_power_configs",
    "idle_gaps",
    "energy_breakdown",
    "total_energy",
    "energy_delay_product",
    "active_interval_time",
    "task_completion_times",
    "schedule_profit",
    "EMQB",
    "KGreedyConsolidate",
    "make_energy_scheduler",
]
