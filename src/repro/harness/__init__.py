"""Experiment harness: regenerates every table and figure of the paper."""

from repro.harness.presets import APP_PRESETS, bench_config, future_config
from repro.harness.spec import ExperimentSpec
from repro.harness.runner import ExperimentError, run_specs
from repro.harness.experiments import (
    ARTIFACT_KEYS,
    all_artifact_specs,
    artifact_specs,
    clear_cache,
    figure4_normalized_time,
    figure5_breakdown,
    figure6_lazier,
    figure7_lazier_breakdown,
    figure8_future,
    figure9_future_breakdown,
    prefetch,
    render_artifact,
    run_spec,
    sensitivity_sweep,
    table1,
    table2_miss_classification,
    table3_miss_rates,
)

__all__ = [
    "APP_PRESETS",
    "ARTIFACT_KEYS",
    "ExperimentError",
    "ExperimentSpec",
    "all_artifact_specs",
    "artifact_specs",
    "bench_config",
    "clear_cache",
    "figure4_normalized_time",
    "figure5_breakdown",
    "figure6_lazier",
    "figure7_lazier_breakdown",
    "figure8_future",
    "figure9_future_breakdown",
    "future_config",
    "prefetch",
    "render_artifact",
    "run_spec",
    "run_specs",
    "sensitivity_sweep",
    "table1",
    "table2_miss_classification",
    "table3_miss_rates",
]
