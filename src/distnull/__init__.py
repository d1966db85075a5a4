"""Significance and replication testing against distributional nulls.

A distributional null keeps "no overall effect" while letting the true
per-experiment mean drift between experiments: mu ~ N(0, q sigma^2),
with q the ratio of cross-experiment to within-experiment variance.
This package provides the closed-form tests under that model, the
replication probability of a result, the joint
significance-and-replication criterion with its q-range solver,
variance-ratio estimation from multi-site data, and a seeded
Monte-Carlo harness that checks the formulas by simulation.

The closed forms need only the standard library.  ``varratio`` and
``mc`` need numpy, so they and their names load on first access.
"""

import importlib

from . import criterion, distributional, errors, point, special
from .criterion import *  # noqa: F403
from .distributional import *  # noqa: F403
from .errors import *  # noqa: F403
from .point import *  # noqa: F403
from .special import *  # noqa: F403

__version__ = "0.1.0"

_EAGER = (errors, special, point, distributional, criterion)
_LAZY = ("varratio", "mc")


def _lazy_modules():
    for name in _LAZY:
        yield importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return ["__version__"] + [
            public for module in (*_EAGER, *_lazy_modules()) for public in module.__all__
        ]
    if not name.startswith("__"):  # tools probing dunders must not load numpy
        for module in _lazy_modules():
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__getattr__("__all__")})
