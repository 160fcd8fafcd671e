"""Experiment harness: one module per table/figure (see DESIGN.md §4).

Importing this package populates :data:`repro.experiments.REGISTRY`, so
``REGISTRY["e3"](fast=True)`` regenerates experiment E3's rows.
"""

from repro.experiments import (  # noqa: F401  (imported for registration)
    e1_instances,
    e2_exchange_budget,
    e3_vs_baselines,
    e4_convergence,
    e5_datacenter,
    e6_scalability,
    e7_transient,
    e8_latency,
    e9_optimality,
    e10_ablation,
    e11_replicas,
    e12_recovery,
    e13_online,
    e15_migration_window,
    e16_routing,
    e17_pool,
    e18_diurnal,
    e19_loaner_sizing,
    e20_portfolio,
    e21_controller,
)
from repro.experiments.harness import REGISTRY, format_table, is_full_run, print_table

__all__ = ["REGISTRY", "format_table", "print_table", "is_full_run"]
