import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_optional_modules_unloaded():
    # Only `phibal check`'s solver once needed scipy, only a config file
    # needs yaml and only a parallel sweep needs multiprocessing. Neither the
    # import, nor a step of the acceptance config, nor its 512-token eval
    # starts a thread or works out the worker count (which reads cgroup
    # files): a step's one expert group and one optimizer chunk, and the
    # eval's three groups per layer (too few for two slices), run on the
    # caller.
    probe = (
        "import sys, threading; threads = threading.active_count(); "
        "import phibal.cli; imported = threading.active_count() - threads; "
        "from phibal.training import TrainConfig, Trainer; trainer = Trainer(TrainConfig()); "
        "[trainer.step() for _ in range(3)]; trainer.evaluate(); from phibal import autodiff; "
        "print(imported, threading.active_count() - threads, autodiff._WORKERS, "
        "sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'yaml', 'multiprocessing', 'concurrent', 'queue')))"
    )
    src = str(Path(phibal.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "0 0 None []"
