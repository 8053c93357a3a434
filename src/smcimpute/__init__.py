"""Multiple imputation of partially observed regression covariates.

Standard chained-equations imputation (run_fcs) and the compatible variant
that imputes each covariate from a density proportional to the outcome model
times a covariate model (run_smcfcs), plus pooling by the usual combining
rules and a Monte-Carlo simulation lab.
"""

from .covariates import CovariateModelSpec, CovariateParams
from .dataset import (
    Column,
    DataError,
    Dataset,
    VariableKind,
    VariableRole,
    missingness_order,
    read_csv,
    write_csv,
)
from .engines import (
    CovariateModelError,
    Diagnostics,
    EngineConfig,
    EngineFailure,
    ImputationResult,
    SubstantiveModelError,
    default_covariate_specs,
    jav_analysis_formula,
    jav_dataset,
    run_fcs,
    run_smcfcs,
)
from .fitters import (
    FitError,
    LinearFit,
    NewtonFit,
    StepCumHazard,
    breslow_baseline,
    draw_linear_posterior,
    fit_cox,
    fit_linear,
    fit_logistic,
    nelson_aalen,
)
from .formula import FormulaError, ModelFormula, Term, design_matrix, parse_formula
from .pooling import PooledEstimate, PoolError, fit_each, pool
from .rng import stream, subsequence
from .substantive import SubstantiveParams

__version__ = "0.1.0"
