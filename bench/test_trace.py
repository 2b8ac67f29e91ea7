"""Self-checks of the benchmark's tracer and child runner.

    python3 -m pytest -q bench/test_trace.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from gtrep import checks, linalg, sorep  # noqa: E402

SMALL = [
    ["build", "--type", "B", "--rank", "2", "--weight", "-1/2,-3/2"],
    ["verify", "--level", "full", "--type", "B", "--rank", "2",
     "--weight", "-1,-1"],
    ["verify", "--level", "full", "--type", "A", "--rank", "3",
     "--weight", "2,1,0"],
]

# counts that must repeat exactly from one traced run to the next
COUNT_METRICS = ("sorep.raise.deformed_cols", "checks.commutator_calls",
                 "linalg.matmul_calls", "cli.output_bytes")


def traced(argv, tmp_path):
    spans = tmp_path / "spans.json"
    res = run.run_child([sys.executable, str(HERE / "trace_child.py"),
                         str(spans), "--"] + argv, time.perf_counter() + 120,
                        tmp_path / "stderr", keep_stdout=True)
    assert res.code == 0, res.stderr
    with open(spans) as f:
        doc = json.load(f)
    return res, tracer.layer_metrics(doc)


def test_install_wraps_every_target_and_undo_restores():
    originals = (sorep.close_generators, linalg.Operator.__matmul__,
                 checks.VerificationReport.add)
    undo = tracer.install(tracer.Tracer())
    try:
        assert sorep.close_generators is not originals[0]
        assert linalg.Operator.__matmul__ is not originals[1]
        assert checks.VerificationReport.add is not originals[2]
    finally:
        undo()
    assert (sorep.close_generators, linalg.Operator.__matmul__,
            checks.VerificationReport.add) == originals


def test_missing_attribute_fails_loudly(monkeypatch):
    raise_fn = sorep.build_f_raise
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + [
        ("gtrep.sorep", "close_generators_renamed", "sorep.closure")])
    with pytest.raises(tracer.TraceError, match="close_generators_renamed"):
        tracer.install(tracer.Tracer())
    # nothing was replaced before the stale entry was found
    assert sorep.build_f_raise is raise_fn


def test_unmapped_check_name_fails_loudly():
    tr = tracer.Tracer()
    undo = tracer.install(tr)
    try:
        tr.phase_mark = tr.clock()
        with pytest.raises(tracer.TraceError, match="no metric name"):
            checks.VerificationReport().add("a check nobody mapped", True)
    finally:
        undo()


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    totals = tracer.span_totals(spans)
    assert totals["a"] == (1, 10.0, 6.0)
    assert totals["b"] == (2, 4.0, 3.0)
    assert totals["c"] == (1, 1.0, 1.0)


@pytest.mark.parametrize("argv", SMALL, ids=lambda a: " ".join(a))
def test_counts_repeat_and_output_matches_untraced(argv, tmp_path):
    first, m1 = traced(argv, tmp_path)
    second, m2 = traced(argv, tmp_path)
    for key in COUNT_METRICS:
        assert m1[key] == m2[key], key
    plain = subprocess.run([sys.executable, "-m", "gtrep"] + argv,
                           capture_output=True, env=run.child_env())
    assert first.stdout == second.stdout == plain.stdout
    assert m1["cli.output_bytes"] == len(plain.stdout)
    if argv[0] == "verify":
        assert m1["checks.commutator_calls"] > 0
        assert m1["checks.structure_s"] > 0
    else:
        assert m1["sorep.raise.deformed_cols"] > 0
        assert m1["sorep.raise.plain_cols"] > m1["sorep.raise.deformed_cols"]


def test_children_ignore_inherited_corruption_hook(monkeypatch, tmp_path):
    monkeypatch.setenv("GTREP_CORRUPT", "E(1,1):0:0:7")
    res = run.run_child([sys.executable, "-m", "gtrep"] + SMALL[2],
                        time.perf_counter() + 120, tmp_path / "stderr",
                        keep_stdout=True)
    assert res.code == 0, res.stderr
    assert json.loads(res.stdout)["summary"] == "pass"
    assert "GTREP_CORRUPT" not in run.child_env()
