"""The benchmark's layer tracer still finds every function it wraps.

``perfbench/layertrace.py`` rebinds program functions by name
(``measure_bank_utilization``, ``effective_bank_throughput_batch``,
``ThroughputStore.load_many``, ...). Renaming one would otherwise only
fail inside the benchmark's traced run; here it fails the suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from layertrace import Tracer, install_layers
from repro.eval import table4_spmu_throughput

tracer = Tracer()
install_layers(tracer)
table4_spmu_throughput(depths=(8,), crossbars=(16,), priorities=(1, 2), vectors=4)
print(json.dumps({"spans": sorted(tracer.spans), "variants": tracer.counters.get("spmu.batch_variants")}))
"""


def test_install_layers_in_a_fresh_interpreter(tmp_path):
    paths = [str(REPO / "src"), str(REPO / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, paths)),
        "REPRO_THROUGHPUT_CACHE_DISABLE": "1",
    }
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # Table 4 is one traced batch of two variants, with no scalar runs.
    traced = json.loads(result.stdout)
    assert "spmu.batch" in traced["spans"]
    assert "spmu.scalar" not in traced["spans"]
    assert traced["variants"] == 2
