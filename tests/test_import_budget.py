"""What a training run imports.

Every third-party package a module under ``repro`` imports at module
scope is paid by every process of every workload, forked pool workers
included: ``networkx``, imported for one export function, cost each of
them 20 MB of RSS and a third of the import time.  One subprocess builds
and runs the tiny FedAvg and SPATL-RL settings and reports the
third-party top-level packages it ended up with, and whether it loaded
the process-pool machinery a serial run never uses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
import repro.fl, repro.experiments.configs
from repro.experiments.configs import config_for, make_algorithm, make_setting
for name, overrides in (("fedavg", {}), ("spatl", {"use_rl_policy": True})):
    cfg = config_for("tiny", n_clients=2, n_samples=200, local_epochs=1,
                     **overrides)
    model_fn, clients = make_setting(cfg)
    make_algorithm(name, cfg, model_fn, clients).run_round(0)
# modules loaded from a file: not __mp_main__ or Cython's runtime shims
after = {name.partition(".")[0] for name, module in sys.modules.items()
         if getattr(module, "__file__", None)}
print(json.dumps({
    "third_party": sorted(after - before - set(sys.stdlib_module_names)
                          - {"repro"}),
    "pool": sorted({name.partition(".")[0] for name in sys.modules}
                   & {"multiprocessing", "concurrent"}),
}))
"""


@pytest.fixture(scope="module")
def imported():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_training_run_imports_numpy_and_nothing_else(imported):
    assert imported["third_party"] == ["numpy"], (
        "a module under repro imports a third-party package at module "
        "scope; import it in the one function that needs it")


def test_a_serial_run_loads_no_process_pool(imported):
    # ~2 MB of RSS in every single-process run (DESIGN.md §9).
    assert imported["pool"] == [], (
        "a serial run imported multiprocessing / concurrent.futures; "
        "import them where the process pool is built")
