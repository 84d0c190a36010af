"""Decentralized work-stealing scheduling subsystem.

Per-processor deques of typed tasks, random-victim stealing, and
decentralized variants of the paper's schedulers (DKGreedy, DMQB).  See
:mod:`repro.decentral.engine` for the execution model.  The degenerate
policy (one shared pool per type, free steals) is plain list
scheduling, so it runs :func:`repro.sim.engine.simulate` itself and is
identical to the centralized schedulers by construction.
"""

from repro.decentral.engine import simulate_decentralized
from repro.decentral.policies import StealPolicy, parse_steal_options
from repro.decentral.schedulers import (
    DKGreedy,
    DMQB,
    DecentralScheduler,
    make_decentral_scheduler,
)

__all__ = [
    "simulate_decentralized",
    "StealPolicy",
    "parse_steal_options",
    "DecentralScheduler",
    "DKGreedy",
    "DMQB",
    "make_decentral_scheduler",
]
