"""The benchmark's traced run, one seeded trial per workload: every wrap
point in ``perfbench/spans.py`` is still found and readable, the spans
reconcile with the row's query totals, and the spans and totals are plain
Python values that ``json`` writes out."""

import importlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from crowdpac import harness

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
spans = importlib.import_module("spans")
workloads = importlib.import_module("workloads")

MODULES = {name: importlib.import_module(f"crowdpac.{name}")
           for name in ("harness", "pipeline", "filtering", "compare_label")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_trial_keeps_the_contract(workload):
    cfg = harness.parse_config_text(workloads.WORKLOADS[workload])
    tracer = spans.Tracer(MODULES)
    with tracer.tracing(0):
        (row,) = harness.run_experiment(replace(cfg, seeds=(workloads.trial_seed(5, 0),)), jobs=1)
    assert tracer.absent == [] and tracer.broken == set()
    assert type(row.m_L) is int and type(row.m_C) is int
    assert spans.reconcile(tracer.spans, row.m_L, row.m_C) == []
    assert tracer.spans
    for span in tracer.spans:
        json.dumps(span.as_dict())
