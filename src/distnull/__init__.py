"""Significance and replication testing against distributional nulls.

A distributional null keeps "no overall effect" while letting the true
per-experiment mean drift between experiments: mu ~ N(0, q sigma^2),
with q the ratio of cross-experiment to within-experiment variance.
This package provides the closed-form tests under that model, the
replication probability of a result, the joint
significance-and-replication criterion with its q-range solver,
variance-ratio estimation from multi-site data, and a seeded
Monte-Carlo harness that checks the formulas by simulation.
"""

from . import criterion, distributional, errors, mc, point, special, varratio
from .criterion import *  # noqa: F403
from .distributional import *  # noqa: F403
from .errors import *  # noqa: F403
from .mc import *  # noqa: F403
from .point import *  # noqa: F403
from .special import *  # noqa: F403
from .varratio import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, special, point, distributional, criterion, varratio, mc)
    for name in module.__all__
]
