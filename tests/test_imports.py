"""Cold start: what a fresh ``import normeval.cli`` loads and starts.

The checks run in a new interpreter, because this test process has
already imported scipy.stats (the p-value tests use it as an oracle)
and numpy's BLAS has already started its threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import normeval

NEVER_LOADED = (
    "scipy.stats",
    "scipy.optimize",
    "scipy.spatial",
    "scipy.linalg",
    "requests",
    "urllib.request",
    "http.client",
)

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


# One http: embedding in an interpreter where importing requests fails.
_WITHOUT_REQUESTS = """
import json, sys, threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.modules["requests"] = None  # makes "import requests" raise ImportError
from normeval import HttpServiceProvider

class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        data = json.dumps({"vectors": [[float(len(t)), 1.0] for t in texts]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass

server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
# a short poll interval lets shutdown() return promptly
threading.Thread(
    target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
).start()
url = f"http://127.0.0.1:{server.server_address[1]}/embed"
print(json.dumps(HttpServiceProvider(url).embed_documents([["ab", "c"], []]).tolist()))
server.shutdown()
"""


# The environment and thread count around the import. The threads are
# counted on Linux only, where /proc/self/task lists them.
_THREADS_PROBE = """
import json, os
before = dict(os.environ)
import normeval.cli
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps({"before": before, "after": dict(os.environ), "threads": threads}))
"""

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

on_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="threads are counted in /proc/self/task"
)


def run_fresh(code: str, env: dict[str, str] | None = None):
    """Run ``code`` in a new interpreter that imports this normeval, in
    ``env`` (default: this process's environment); return its stdout
    parsed as JSON."""
    src = str(Path(normeval.__file__).resolve().parent.parent)
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def cold_import():
    return run_fresh(_PROBE)


@pytest.mark.parametrize("module", NEVER_LOADED)
def test_cli_import_does_not_load(cold_import, module):
    assert module not in cold_import["modules"]


def test_thread_pool_is_imported_lazily(cold_import):
    assert cold_import["direct"] == []


def test_http_embedding_without_requests():
    assert run_fresh(_WITHOUT_REQUESTS) == [[4.0, 1.0], [0.0, 0.0]]


def without_thread_vars(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(extra)
    return env


@pytest.fixture(scope="module")
def uncapped_import():
    """The probe in an environment that sets no BLAS thread count."""
    return run_fresh(_THREADS_PROBE, without_thread_vars())


@on_linux
def test_cli_import_starts_no_blas_threads(uncapped_import):
    assert uncapped_import["threads"] == 1


def test_cli_import_leaves_the_environment_as_it_was(uncapped_import):
    assert uncapped_import["after"] == uncapped_import["before"]


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@on_linux
@pytest.mark.skipif(usable_cpus() < 2, reason="OpenBLAS starts no worker on a single CPU")
def test_user_thread_count_is_kept():
    result = run_fresh(_THREADS_PROBE, without_thread_vars(OPENBLAS_NUM_THREADS="2"))
    assert result["after"]["OPENBLAS_NUM_THREADS"] == "2"
    assert result["after"] == result["before"]
    assert result["threads"] > 1


def test_import_after_numpy_leaves_the_environment_as_it_was():
    result = run_fresh("import numpy\n" + _THREADS_PROBE, without_thread_vars())
    assert result["after"] == result["before"]
