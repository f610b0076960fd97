"""The public names: each module's ``__all__`` is the one list of them."""

import importlib
import pkgutil
import types

import hvnet


def test_all_names_are_defined_and_the_package_root_holds_only_the_version():
    modules = [
        importlib.import_module(f"hvnet.{info.name}")
        for info in pkgutil.iter_modules(hvnet.__path__)
    ]
    assert len(modules) >= 9
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__
    # Importing the submodules binds them on the package; nothing else may be there.
    library = [
        name for name, value in vars(hvnet).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    ]
    assert library == []
    assert isinstance(hvnet.__version__, str)
