"""Post-Lie algebra toolkit.

Finite-dimensional Lie algebras over exact rationals or floats, classical
r-matrices and splittings, post-Lie products with their lifted Hopf-algebra
machinery on truncated enveloping algebras, the post-Lie Magnus expansion
and group-like factorization, and isospectral Lax flows (Toda lattice).

The subpackages can be used directly (``postlie.liealg``, ``postlie.rmatrix``,
``postlie.products``, ``postlie.enveloping`` (imported on first access),
``postlie.magnus``, ``postlie.flows``); the names below cover the common
entry points.
"""

import importlib

from . import (  # noqa: F401
    errors,
    flows,
    liealg,
    magnus,
    products,
    rmatrix,
    scalars,
)
from .errors import PostLieError  # noqa: F401
from .flows import (  # noqa: F401
    FlowProblem,
    conservation_report,
    factorized_solution,
    rk4_reference,
    toda_problem,
)
from .liealg import bracket, builtin, load_algebra, new_lie_algebra  # noqa: F401
from .magnus import (  # noqa: F401
    GradedLieElement,
    bch,
    chi_pm,
    postlie_magnus,
    prelie_magnus,
    verify_chi_ode,
    verify_grouplike_identity,
)
from .products import check_postlie, check_prelie, from_rmatrix  # noqa: F401
from .rmatrix import builtin_rmatrix, is_rmatrix, rmatrix_context, splitting_r  # noqa: F401

__version__ = "0.1.0"


def __getattr__(name):
    if name == "enveloping":
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "FlowProblem",
    "GradedLieElement",
    "PostLieError",
    "bch",
    "bracket",
    "builtin",
    "builtin_rmatrix",
    "check_postlie",
    "check_prelie",
    "chi_pm",
    "conservation_report",
    "enveloping",
    "errors",
    "factorized_solution",
    "flows",
    "from_rmatrix",
    "is_rmatrix",
    "liealg",
    "load_algebra",
    "magnus",
    "new_lie_algebra",
    "postlie_magnus",
    "prelie_magnus",
    "products",
    "rk4_reference",
    "rmatrix",
    "rmatrix_context",
    "scalars",
    "splitting_r",
    "toda_problem",
    "verify_chi_ode",
    "verify_grouplike_identity",
]
