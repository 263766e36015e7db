"""Every gaslab module imports on its own, in a fresh interpreter: none
relies on another import having loaded something first, and the package
root loads none of them."""

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import gaslab

MODULES = sorted(info.name for info in
                 pkgutil.walk_packages(gaslab.__path__, "gaslab."))
# Each child finds gaslab where this process found it.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def _import_alone(module):
    return subprocess.run([sys.executable, "-c", f"import {module}"],
                          capture_output=True, text=True, env=ENV)


def test_module_list_covers_the_subpackages():
    assert {"gaslab.evm", "gaslab.model.base",
            "gaslab.report.pipeline"} <= set(MODULES)


def test_every_module_imports_in_a_fresh_interpreter():
    # Four interpreters at a time keep the test to a few seconds.
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = dict(zip(MODULES, pool.map(_import_alone, MODULES)))
    failed = {module: run.stderr for module, run in runs.items()
              if run.returncode != 0}
    assert not failed


def test_package_root_loads_no_module():
    run = subprocess.run(
        [sys.executable, "-c", "import sys, gaslab; print(sorted("
         "m for m in sys.modules if m.startswith('gaslab.')))"],
        capture_output=True, text=True, env=ENV)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_package_root_serves_only_the_benchmark_names():
    from gaslab import (MacroCategory, SampleSink,  # noqa: F401
                        default_schedule, load_workload, run_chain)
    assert not hasattr(gaslab, "WorkloadSpec")


def test_interpreter_loads_no_chain_driver_or_workload():
    run = subprocess.run(
        [sys.executable, "-c", "import sys, gaslab.evm.machine as m; print("
         "[name for name in ('gaslab.chain', 'gaslab.workload') "
         "if name in sys.modules], hasattr(m, 'execute_transaction'))"],
        capture_output=True, text=True, env=ENV)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[] False"
