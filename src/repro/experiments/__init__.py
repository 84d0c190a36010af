"""Experiment harness: regenerate every figure of the paper's evaluation.

Each figure of Section V maps to a function in
:mod:`repro.experiments.figures` returning a JSON-serializable result
dict; :mod:`repro.experiments.report` renders those dicts as ASCII
tables, and :mod:`repro.experiments.store` persists them.  The CLI
(``python -m repro.cli``) wires it together.

Seeding: every (figure, panel, condition, instance) gets its own
``numpy.random.SeedSequence``-derived generator, and all algorithms of
a comparison see the *same* job/system instances (paired design), so
results are exactly reproducible and algorithm differences are not
sampling noise.
"""

from repro.experiments.figures import (
    EXPERIMENTS,
    run_experiment,
)
from repro.experiments.runner import run_comparison
from repro.experiments.parallel import resolve_workers
from repro.experiments.report import render_result
from repro.experiments.store import load_result, save_result

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "run_comparison",
    "resolve_workers",
    "render_result",
    "save_result",
    "load_result",
]
