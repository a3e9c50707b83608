"""Cold start: what a fresh ``import normeval.cli`` loads.

The checks run in a new interpreter, because this test process has
already imported scipy.stats (the p-value tests use it as an oracle).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import normeval

NEVER_LOADED = ("scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.linalg", "requests")

# Only HttpServiceProvider needs concurrent.futures. scipy loads it anyway
# (through numpy.testing), so the probe records which normeval modules
# import it themselves.
_PROBE = """
import builtins, json, sys

direct = []
real_import = builtins.__import__

def recording_import(name, globals=None, locals=None, fromlist=(), level=0):
    importer = (globals or {}).get("__name__", "")
    if level == 0 and name == "concurrent.futures" and importer.split(".")[0] == "normeval":
        direct.append(importer)
    return real_import(name, globals, locals, fromlist, level)

builtins.__import__ = recording_import
import normeval.cli
builtins.__import__ = real_import
print(json.dumps({"modules": sorted(sys.modules), "direct": direct}))
"""


@pytest.fixture(scope="module")
def cold_import():
    src = str(Path(normeval.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", NEVER_LOADED)
def test_cli_import_does_not_load(cold_import, module):
    assert module not in cold_import["modules"]


def test_thread_pool_is_imported_lazily(cold_import):
    assert cold_import["direct"] == []
