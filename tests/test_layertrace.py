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

PREAMBLE = """
import json
from layertrace import Tracer, install_layers

tracer = Tracer()
install_layers(tracer)
"""

SCRIPT = PREAMBLE + """
from repro.eval import table4_spmu_throughput

table4_spmu_throughput(depths=(8,), crossbars=(16,), priorities=(1, 2), vectors=4)
print(json.dumps({"spans": sorted(tracer.spans), "variants": tracer.counters.get("spmu.batch_variants")}))
"""

#: The harnesses that cost through the batch model alone; Figures 5a and 5c
#: still re-cost each profile through the scalar model.
BATCH_COSTED_SCRIPT = PREAMBLE + """
from repro.eval import run_harnesses

run_harnesses(["table13", "figure5b", "figure6", "figure7"], scale=1 / 256)
print(json.dumps({"spans": sorted(tracer.spans)}))
"""


def _run_traced(script: str, cwd: Path) -> dict:
    """Run ``script`` in a fresh interpreter that can import the tracer."""
    paths = [str(REPO / "src"), str(REPO / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, paths)),
        "REPRO_THROUGHPUT_CACHE_DISABLE": "1",
    }
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_install_layers_in_a_fresh_interpreter(tmp_path):
    # Table 4 is one traced batch of two variants, with no scalar runs.
    traced = _run_traced(SCRIPT, tmp_path)
    assert "spmu.batch" in traced["spans"]
    assert "spmu.scalar" not in traced["spans"]
    assert traced["variants"] == 2


def test_batch_costed_harnesses_never_call_the_scalar_model(tmp_path):
    traced = _run_traced(BATCH_COSTED_SCRIPT, tmp_path)
    assert "costing.batch" in traced["spans"]
    assert "costing.scalar" not in traced["spans"]
