import importlib
import pkgutil

import phibal


def test_every_exported_name_resolves():
    modules = [phibal] + [
        importlib.import_module(f"phibal.{info.name}")
        for info in pkgutil.iter_modules(phibal.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
