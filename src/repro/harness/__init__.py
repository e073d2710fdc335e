"""Evaluation harness: sweeps, table/figure rendering, CLI."""

from repro.harness.compare import (ModelExplanation, compare_models,
                                   explain_model)
from repro.harness.sensitivity import (SensitivityReport,
                                       scaled_device, sensitivity_sweep)
from repro.harness.report import (render_figure1, render_figure1_csv,
                                  render_table2)
from repro.harness.runner import (FIGURE1_MODELS, TABLE2_MODELS,
                                  EvaluationResults, run_full_evaluation,
                                  run_speedups)
from repro.harness.validate import (ValidationMatrix,
                                    validate_suite)
from repro.harness.tuner import (DEFAULT_BLOCK_SIZES, TunePoint,
                                 TuneResult, tune_benchmark, tune_kernel)

__all__ = [
    "EvaluationResults", "run_speedups", "run_full_evaluation",
    "FIGURE1_MODELS", "TABLE2_MODELS",
    "render_table2", "render_figure1", "render_figure1_csv",
    "tune_kernel", "tune_benchmark", "TuneResult", "TunePoint",
    "DEFAULT_BLOCK_SIZES",
    "compare_models", "explain_model", "ModelExplanation",
    "sensitivity_sweep", "scaled_device", "SensitivityReport",
    "validate_suite", "ValidationMatrix",
]
