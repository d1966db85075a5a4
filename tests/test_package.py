import importlib
import pkgutil

import distnull


def _modules_with_all():
    for info in pkgutil.iter_modules(distnull.__path__):
        module = importlib.import_module(f"distnull.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_package_lists_every_module_name_once():
    expected = ["__version__"] + [name for m in _modules_with_all() for name in m.__all__]
    assert sorted(distnull.__all__) == sorted(expected)
    assert len(set(distnull.__all__)) == len(distnull.__all__)


def test_every_exported_name_resolves():
    for name in distnull.__all__:
        assert hasattr(distnull, name), name
    for module in _modules_with_all():
        for name in module.__all__:
            assert getattr(distnull, name) is getattr(module, name)
