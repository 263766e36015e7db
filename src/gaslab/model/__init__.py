"""Cost-model analysis: standard contracts, height-dependence
classification, polynomial time models, repricing, and validation.

Time and gas models are plain dicts from opcode name to `ScalarModel`.
`ScalarModel.evaluate` is the one evaluator: it clamps a negative
prediction to the model's training floor.
"""

from .base import (FitError, InsufficientDataError, InvalidConstantError,
                   MissingModelError, ModelFileError, ScalarModel,
                   UndefinedRatioError)
from .classify import (DEFAULT_THRESHOLD, DEPENDENT, INDEPENDENT,
                       ClassificationResult, classify_bh_dependence,
                       classify_opcode, mean_time_series,
                       pearson_correlation)
from .contract import (StandardContract, avg_prog_gas, avg_prog_time,
                       avg_prog_tpg, dependent_time_share)
from .fit import (bic_score, build_time_models, constant_model,
                  fit_time_model, load_models, models_from_json,
                  models_to_json)
from .reprice import (DEFAULT_TIME_PER_GAS, current_gas_model,
                      materialize_schedule, propose_gas_model)
from .validate import (ChiSquareResult, chi_square_decision,
                       chi_square_normality, macro_micro_differences,
                       relative_difference)

__all__ = [
    "ChiSquareResult", "ClassificationResult", "DEFAULT_THRESHOLD",
    "DEFAULT_TIME_PER_GAS", "DEPENDENT", "FitError", "INDEPENDENT",
    "InsufficientDataError", "InvalidConstantError", "MissingModelError",
    "ModelFileError", "ScalarModel", "StandardContract",
    "UndefinedRatioError", "avg_prog_gas", "avg_prog_time", "avg_prog_tpg",
    "bic_score", "build_time_models", "chi_square_decision",
    "chi_square_normality", "classify_bh_dependence", "classify_opcode",
    "constant_model", "current_gas_model", "dependent_time_share",
    "fit_time_model", "load_models", "macro_micro_differences",
    "materialize_schedule", "mean_time_series", "models_from_json",
    "models_to_json", "pearson_correlation", "propose_gas_model",
    "relative_difference",
]
