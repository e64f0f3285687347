"""Every CLI job of the benchmark must parse with the package's CLI.

``bench/run.py`` builds its workloads' jobs as argv lists, so a deleted or
renamed option would otherwise surface only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from liegrowth import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_benchmark_cli_job_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports checks and tracer
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclass looks itself up
    spec.loader.exec_module(run)
    parser = cli.build_parser()
    argvs = [job.payload["cli"] for build in run.WORKLOADS.values() for job in build(0)
             if "cli" in job.payload]
    assert argvs
    for argv in argvs:
        parser.parse_args(argv)
