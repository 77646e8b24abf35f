"""Experiment harness: one driver per paper table/figure.

* :mod:`repro.experiments.config` — experiment-level configuration.
* :mod:`repro.experiments.runner` — simulate one cell, and run
  seed-averaged (trace seed x mechanism) grids on the campaign engine.
* :mod:`repro.experiments.figures` — drivers named after the paper's
  exhibits (``table1``, ``table2``, ``fig3`` ... ``fig7``) returning
  structured results and rendering the same rows/series the paper reports.
* :mod:`repro.experiments.cli` — ``repro-hybrid`` command-line front end.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_mechanism_grid, run_one
from repro.experiments.figures import (
    fig3_size_mix,
    fig4_type_mix,
    fig5_burstiness,
    fig6_mechanisms,
    fig7_checkpointing,
    headline_comparison,
    table1_workload,
    table2_baseline,
    table3_mixes,
)

__all__ = [
    "ExperimentConfig",
    "run_mechanism_grid",
    "run_one",
    "headline_comparison",
    "fig3_size_mix",
    "fig4_type_mix",
    "fig5_burstiness",
    "fig6_mechanisms",
    "fig7_checkpointing",
    "table1_workload",
    "table2_baseline",
    "table3_mixes",
]
