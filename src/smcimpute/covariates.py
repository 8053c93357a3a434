"""Compatibility re-export of the covariate-model names.

The covariate model f(target | other covariates) is a `CovariateModelSpec`
and the `draw`, `sample` and `log_ratio` of its family object; its
parameters are the one `Params` type.  All of them live in `substantive`.
"""

from .substantive import CovariateModelSpec
from .substantive import Params as CovariateParams

__all__ = ["CovariateModelSpec", "CovariateParams"]
