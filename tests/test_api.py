"""The public names: each module's ``__all__`` is the one list of them."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

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


def test_the_light_modules_load_neither_scipy_nor_the_harness():
    # The README's promise: these modules need numpy alone.
    code = (
        "import json, sys\n"
        "import hvnet.data, hvnet.hdc, hvnet.encoding, hvnet.errors\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = str(Path(hvnet.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120, check=True)
    loaded = json.loads(done.stdout)
    assert "hvnet.data" in loaded
    heavy = [
        name for name in loaded
        if name.startswith(("scipy", "click")) or name in ("hvnet.classifiers", "hvnet.harness")
    ]
    assert heavy == []
