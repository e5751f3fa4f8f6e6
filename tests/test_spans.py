import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Installing the tracer rebinds functions across the package, so it runs
# in a fresh interpreter, loaded as perfbench/workloads.py loads it.
INSTALL = """
import sys
sys.path.insert(0, "perfbench")
import skeinlab.verify
from skeinlab.algebra import LaurentPoly, RatFunc
from spans import Tracer

before = LaurentPoly.__mul__, RatFunc.__mul__
Tracer().install()
assert LaurentPoly.__mul__ is before[0], "LaurentPoly.__mul__ was wrapped"
assert RatFunc.__mul__ is before[1], "RatFunc.__mul__ was wrapped"
"""


def test_every_benchmark_span_binds_only_its_own_target():
    # install raises when a traced name is bound nowhere; a span on
    # CycloNum.__mul__ must not also wrap the other classes' products
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# perfbench/workloads.py times a cold pass and refuses to start when a
# skeinlab cache already holds entries, so importing the package must
# fill none of them.
COLD = """
import sys
sys.path.insert(0, "perfbench")
import skeinlab.verify
from workloads import _caches_in_use

assert _caches_in_use() == [], _caches_in_use()
"""


def test_import_leaves_every_cache_empty():
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run([sys.executable, "-c", COLD], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
