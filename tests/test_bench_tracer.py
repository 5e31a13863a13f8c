"""The benchmark tracer still finds every stage it times.

``bench/tracer.py`` wraps public stage functions by name and reads their
arguments and results for its counters.  A rename or deletion there would
only show as a ``missing`` metric in a traced benchmark run; this test
makes it fail here instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from influnet.cli import main
from helpers import FIXTURE

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up in sys.modules while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_stage_is_found_and_timed(monkeypatch, tmp_path):
    bench = load_tracer(monkeypatch)
    tracer = bench.Tracer()
    tracer.install()
    try:
        codes = [
            main(["pipeline", "--input", str(FIXTURE), "--out", str(tmp_path / "report")]),
            main(["baseline", "--input", str(FIXTURE)]),
            main(["export", "--core", "--format", "csv", "--input", str(FIXTURE)]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    assert tracer.missing == set()
    timed = {span.name for span in tracer.spans}
    assert [s.metric for s in bench.STAGES if s.metric not in timed] == []
