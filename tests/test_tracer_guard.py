"""The benchmark tracer (perfbench/tracer.py) wraps diffdesign functions by
attribute name. A renamed attribute must fail here, not only in a traced
benchmark run. The tracer patches modules for the rest of its process, so
the pipeline runs in a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from diffdesign import config, pipeline

tr = tracer.Tracer()
tracer.instrument(tr, full=True)
cfg = config.load_config({"geometry": {"h": 0.2}, "physics": {"n_steps": 4},
                          "design": {"budget": 3}})
pipeline.run_pipeline(cfg, sys.argv[3], log=False)
print(json.dumps({"spans": sorted({s[0] for s in tr.spans}), "counts": tr.counts}))
"""


def test_tracer_instruments_pipeline(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout.splitlines()[-1])
    assert {"mesh", "fim.sensors", "mesh_io.write"} <= set(trace["spans"])
    assert trace["counts"]["mesh_io.files"] > 0
