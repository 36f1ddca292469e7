import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import haefliger

SRC = str(Path(haefliger.__file__).parents[1])
SUBMODULES = ("calculus", "classical", "diagram", "errors", "generator", "linking")


def test_import_loads_no_submodule_and_no_numpy():
    probe = (
        "import json, sys\n"
        "import haefliger\n"
        "print(json.dumps(sorted(n for n in sys.modules\n"
        "                        if n.startswith(('haefliger.', 'numpy')))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == []


def test_every_public_name_is_its_submodules_object():
    for name in haefliger.__all__:
        module = importlib.import_module(f"haefliger.{haefliger._EXPORTS[name]}")
        assert getattr(haefliger, name) is getattr(module, name), name
    for name in SUBMODULES:
        assert getattr(haefliger, name) is sys.modules[f"haefliger.{name}"]
    assert haefliger.linking.circle is haefliger.circle


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        haefliger.no_such_name
    assert not hasattr(haefliger, "cli_main")


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from haefliger import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(haefliger.__all__)
    assert set(haefliger.__all__) <= set(dir(haefliger))
    assert "__version__" in dir(haefliger)


def test_lazy_submodules_are_seen_by_importtime():
    # -X importtime reports an import made through __import__, not one
    # made through importlib.import_module.
    probe = "import haefliger\nhaefliger.classical\nhaefliger.v2\nhaefliger.calculus\n"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        timeout=120, check=True,
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {"haefliger.classical", "haefliger.calculus", "haefliger.diagram"} <= imported
