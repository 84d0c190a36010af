"""Energy-aware scheduler variants.

Two families, both thin layers over the paper's algorithms so that the
energy knob degenerates to the base scheduler *bit-for-bit* when turned
off (the correctness anchor ``tests/test_differential.py`` asserts):

* :class:`EMQB` (``emqb[w=0.5]``, optionally ``power=<config>``) —
  MQB's lexicographic utilization balancing with each type's
  x-utilization rescaled by an idle-power weight.  Types that are
  expensive to leave idle (high ``idle_power * P_alpha``) get weight
  ``> 1``, so their queues look *more* starved and MQB feeds them
  first; cheap types get weight ``< 1`` and may be left to drain.  At
  ``w=0`` — or under any uniform power model — every weight is exactly
  ``1.0`` and the multiply is a bitwise no-op, so EMQB runs MQB's exact
  arithmetic through the same code path (the same trick the telemetry
  on/off contract uses).
* :class:`KGreedyConsolidate` (``kgreedy-consolidate[r=0.5]``) —
  KGreedy with per-type concurrency capped at ``ceil(r * P_alpha)``:
  work consolidates onto fewer processors, lengthening the idle gaps on
  the rest so shutdown windows can engage (arXiv:2105.06287's
  busy-time lever).  ``r=1`` caps at ``P_alpha``, which never binds, so
  it is bit-identical to plain KGreedy including decision counts.

Both names flow through the scheduler registry's bracket-suffix
parsing (:func:`make_energy_scheduler`), so sweeps, the result cache,
and the service pick them up unchanged.  Each declares a row kind of
its own family, ``"emqb"`` and ``"consolidate"``
(:func:`repro.capabilities.row_kind`), so the native whole-run loops
run them with their weights and caps — reading ``_eweights`` and
``_cap`` after :meth:`prepare` — while a subclass that overrides their
protocol falls back to the Python loop instead of running as them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.kdag import KDag
from repro.energy.models import PowerModel, power_config
from repro.errors import ConfigurationError
from repro.schedulers.kgreedy import KGreedy
from repro.schedulers.mqb import MQB
from repro.system.resources import ResourceConfig

__all__ = [
    "EMQB",
    "KGreedyConsolidate",
    "make_energy_scheduler",
    "DEFAULT_EMQB_POWER",
]

#: Power config EMQB weights against when none is named.  ``hetero``
#: is the only named config whose idle draws differ across types —
#: under uniform draws the weights collapse to 1.0 and EMQB is MQB.
DEFAULT_EMQB_POWER = "hetero"


class EMQB(MQB):
    """MQB scoring idle-power-weighted x-utilizations.

    Parameters
    ----------
    w:
        Energy weight in ``[0, 1]``.  ``0`` disables the rescaling
        (bit-identical to ``mqb``); ``1`` applies the full idle-cost
        spread.
    power:
        A named power config (see
        :func:`repro.energy.models.power_config`) or a
        :class:`~repro.energy.models.PowerModel` instance; resolved
        against the system's K in :meth:`prepare`.
    """

    requires_offline = True
    lockstep = "emqb"

    def __init__(self, w: float = 0.5, power: str | PowerModel = DEFAULT_EMQB_POWER) -> None:
        super().__init__(balance_mode="lex", carry_projection=True)
        w = float(w)
        if not math.isfinite(w) or not 0.0 <= w <= 1.0:
            raise ConfigurationError(
                f"emqb energy weight must be in [0, 1], got {w!r}"
            )
        if isinstance(power, str):
            power_name = power.strip().lower()
        elif isinstance(power, PowerModel):
            power_name = power.name
        else:
            raise ConfigurationError(
                f"emqb power must be a config name or PowerModel, got {power!r}"
            )
        self._w = w
        self._power = power
        parts = [f"w={w:g}"]
        if power_name != DEFAULT_EMQB_POWER:
            parts.append(f"power={power_name}")
        self.name = f"emqb[{','.join(parts)}]"
        self._eweights: np.ndarray | None = None

    @property
    def w(self) -> float:
        return self._w

    def prepare(
        self,
        job: KDag,
        resources: ResourceConfig,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().prepare(job, resources, rng)
        if isinstance(self._power, PowerModel):
            power = self._power.check_types(resources.num_types)
        else:
            power = power_config(self._power, resources.num_types)
        assert self._parr is not None
        # Idle cost of keeping each type's whole pool powered on.  The
        # uniform-cost case short-circuits to exact ones (rather than
        # relying on ``cost/mean - 1`` cancelling in floating point), so
        # uniform power — like w=0 — is bitwise MQB.
        cost = power.idle_array() * self._parr
        mean = float(cost.mean())
        if self._w == 0.0 or mean <= 0.0 or bool(np.all(cost == cost[0])):
            self._eweights = np.ones(resources.num_types, dtype=np.float64)
        else:
            self._eweights = 1.0 + self._w * (cost / mean - 1.0)

    def _pick_best(self, alpha: int, extra: np.ndarray) -> int:
        """MQB's scoring with one insertion: ``r *= eweights``.

        The replicated arithmetic must stay in lockstep with
        :meth:`MQB._pick_best` (lex mode); when every weight is exactly
        ``1.0`` the extra multiply changes no bits, so the pick — and
        therefore the whole schedule — is identical to MQB's.
        """
        assert self._l is not None and self._parr is not None
        assert self._eweights is not None
        tasks = self._ptasks[alpha]
        m = len(tasks)
        r = self._dpool[alpha][:m] + (self._l + extra)
        r[:, alpha] -= self._wpool[alpha][:m]
        r /= self._parr
        r *= self._eweights
        neg_seq = -self._spool[alpha][:m]
        r.sort(axis=1)
        sort_keys = (neg_seq, *(r[:, j] for j in range(r.shape[1] - 1, 0, -1)), r[:, 0])
        return tasks[int(np.lexsort(sort_keys)[-1])]


class KGreedyConsolidate(KGreedy):
    """KGreedy with per-type concurrency capped at ``ceil(r * P_alpha)``.

    The cap is enforced in :meth:`assign` by clamping each type's slot
    count to ``cap - running``; a capped type simply contributes no
    picks this round (never a stall: ``cap >= 1`` means a capped type
    always has a running task, so the event heap is never empty while
    work remains).  Running counts track the engines' start/finish
    events, including the preemptive engine's quantum-boundary
    re-announcements (a returned task is no longer running).
    """

    requires_offline = False
    lockstep = "consolidate"

    def __init__(self, ratio: float = 0.5) -> None:
        super().__init__()
        ratio = float(ratio)
        if not math.isfinite(ratio) or not 0.0 < ratio <= 1.0:
            raise ConfigurationError(
                f"consolidation ratio must be in (0, 1], got {ratio!r}"
            )
        self._ratio = ratio
        self.name = f"kgreedy-consolidate[r={ratio:g}]"
        self._cap: np.ndarray | None = None
        self._running: list[int] = []
        self._started: set[int] = set()

    @property
    def ratio(self) -> float:
        return self._ratio

    def prepare(
        self,
        job: KDag,
        resources: ResourceConfig,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().prepare(job, resources, rng)
        parr = resources.as_array()
        self._cap = np.maximum(
            1, np.ceil(self._ratio * parr).astype(np.int64)
        )
        self._running = [0] * job.num_types
        self._started = set()

    def task_ready(self, task: int, time: float, work: float) -> None:
        # A preemptive engine returns running tasks to the pool at
        # quantum boundaries via task_ready (no task_finished), so a
        # re-announced started task stops counting against the cap.
        if task in self._started:
            self._started.discard(task)
            self._running[int(self.job.types[task])] -= 1
        super().task_ready(task, time, work)

    def assign(self, free: list[int], time: float) -> list[int]:
        assert self._cap is not None
        chosen: list[int] = []
        for alpha, slots in enumerate(free):
            slots = min(int(slots), int(self._cap[alpha]) - self._running[alpha])
            if slots <= 0 or self.pending(alpha) == 0:
                continue
            picked = self.select(alpha, slots, time)
            self._started.update(picked)
            self._running[alpha] += len(picked)
            chosen.extend(picked)
        return chosen

    def task_finished(self, task: int, time: float) -> None:
        if task in self._started:
            self._started.discard(task)
            self._running[int(self.job.types[task])] -= 1


# ----------------------------------------------------------------------
# registry glue
# ----------------------------------------------------------------------
def _parse_options(text: str, name: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in text.split(","):
        opt = raw.strip()
        if not opt:
            continue
        key, sep, value = opt.partition("=")
        if not sep or not value:
            raise ConfigurationError(
                f"bad {name} option {opt!r} (expected key=value)"
            )
        out[key.strip()] = value.strip()
    return out


def _parse_float(value: str, label: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigurationError(
            f"bad {label} {value!r} (expected a number)"
        ) from None


def make_energy_scheduler(name: str):
    """Construct an energy scheduler from its registry name.

    Accepted: ``emqb``, ``emqb[w=<float>]``,
    ``emqb[w=<float>,power=<config>]``, ``kgreedy-consolidate``,
    ``kgreedy-consolidate[r=<float>]``.
    """
    key = name.strip().lower()
    base, sep, rest = key.partition("[")
    options = ""
    if sep:
        if not rest.endswith("]"):
            raise ConfigurationError(f"unterminated options in {name!r}")
        options = rest[:-1]
    if base == "emqb":
        opts = _parse_options(options, "emqb")
        kwargs: dict[str, object] = {}
        if "w" in opts:
            kwargs["w"] = _parse_float(opts.pop("w"), "emqb weight")
        if "power" in opts:
            kwargs["power"] = opts.pop("power")
        if opts:
            raise ConfigurationError(
                f"unknown emqb option(s) {sorted(opts)}; known: ['power', 'w']"
            )
        return EMQB(**kwargs)  # type: ignore[arg-type]
    if base == "kgreedy-consolidate":
        opts = _parse_options(options, "kgreedy-consolidate")
        kwargs = {}
        if "r" in opts:
            kwargs["ratio"] = _parse_float(opts.pop("r"), "consolidation ratio")
        if opts:
            raise ConfigurationError(
                f"unknown kgreedy-consolidate option(s) {sorted(opts)}; known: ['r']"
            )
        return KGreedyConsolidate(**kwargs)  # type: ignore[arg-type]
    raise ConfigurationError(f"unknown energy scheduler {name!r}")
