"""What a training run imports.

Every third-party package a module under ``repro`` imports at module
scope is paid by every process of every workload, forked pool workers
included: ``networkx``, imported for one export function, cost each of
them 20 MB of RSS and a third of the import time.  One subprocess builds
and runs the tiny FedAvg and SPATL-RL settings and reports the
third-party top-level packages it ended up with.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
print(json.dumps(sorted(after - before - set(sys.stdlib_module_names)
                        - {"repro"})))
"""


def test_a_training_run_imports_numpy_and_nothing_else():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == ["numpy"], (
        "a module under repro imports a third-party package at module "
        "scope; import it in the one function that needs it")
