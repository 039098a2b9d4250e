"""The program names that perfbench hooks into still exist.

perfbench patches the package's functions by name (``tracing``) and builds
its model configuration through ``workloads.model_config``. This installs
those hooks in a fresh interpreter, so their patches never reach the other
tests, and fails when a name they look up is gone.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from fedhorizon import (cohort, experiment, federation, metrics, nn,
                        synthgen, windowing)
import tracing
import workloads
tracing.UplinkCounter(federation)
tracing.Tracer().install(synthgen, cohort, windowing, experiment, nn,
                         federation, metrics)
config = workloads.model_config(workloads.make_config(1), 26)
assert config.n_features == 27, config
"""


def test_perfbench_hooks_install():
    script = SCRIPT.format(src=os.path.join(ROOT, "src"),
                           bench=os.path.join(ROOT, "perfbench"))
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
