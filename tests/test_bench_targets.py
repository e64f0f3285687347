"""The benchmark's traced layer functions must exist in the package.

``bench/worker.py --trace`` wraps each ``TARGETS`` entry by name, so a
renamed or deleted function would otherwise surface only in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert worker.TARGETS
    for name, module, attr, _ in worker.TARGETS:
        assert hasattr(importlib.import_module(module), attr), name
