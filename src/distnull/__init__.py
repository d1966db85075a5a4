"""Significance and replication testing against distributional nulls.

A distributional null keeps "no overall effect" while letting the true
per-experiment mean drift between experiments: mu ~ N(0, q sigma^2),
with q the ratio of cross-experiment to within-experiment variance.
This package provides the closed-form tests under that model, the
replication probability of a result, the joint
significance-and-replication criterion with its q-range solver,
variance-ratio estimation from multi-site data, and a seeded
Monte-Carlo harness that checks the formulas by simulation.

Every submodule, and every public name, loads on first access, so
``import distnull`` loads none of them.  A name is looked up in the
layers in dependency order and loads only the layers up to its own:
``from distnull import t_cdf`` loads ``errors`` and ``special``.  Only
``mc`` needs numpy; it is searched last.
"""

from importlib import import_module

__version__ = "0.1.0"

# Dependency order: each layer imports only layers before it.
_LAYERS = ("errors", "special", "point", "distributional", "criterion", "varratio", "mc")
_SUBMODULES = (*_LAYERS, "cli")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__"] + [
            public for layer in _LAYERS for public in __getattr__(layer).__all__
        ]
    elif name.startswith("__"):  # tools probing dunders must not load numpy
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for layer in _LAYERS:
            module = __getattr__(layer)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})
