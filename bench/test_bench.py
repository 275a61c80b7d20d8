"""The benchmark's own tests, on tiny corpora.

Every named metric is present with its unit, traced counters repeat exactly
between two runs of the same seed, self times fit inside the traced wall
time, seeds change the inputs but not their answers, and a checkout without
``src/`` makes the benchmark fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_have_names_and_units(workload):
    proc = run_bench(workload, 0)
    result = result_of(proc)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"{workload:<19} error_rate" in proc.stdout


# counters the layer table leans on: each must be busy on its workload
BUSY = {
    "games": (
        "minnorm.min_norm_point.lp_calls",
        "lp.solve_lp.den_bits_max",
        "games.maximal_losing.coalitions",
        "complete.csg_payoff.self_s",
        "lp.in_convex_hull.generators_sum",
        "minnorm.tightness_check.tight",
    ),
    "graph-cuts": ("graphs.alpha_graph.cut_rounds", "graphs.enumerate_mis.items"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first = result_of(run_bench(workload, 1))
    spans = json.loads((ROOT / ".bench_runs" / f"{workload}-seed{SEED}-spans.json").read_text())
    second = result_of(run_bench(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == expected
    counters = [name for name, unit in expected.items() if unit in ("count", "bits")]
    assert {c: first["metrics"][c] for c in counters} == {c: second["metrics"][c] for c in counters}
    assert all(first["metrics"][name]["value"] > 0 for name in BUSY[workload])
    assert 0 < tracer.self_time_total(spans["solve"]) <= spans["wall_s"]


def test_tracer_patches_every_binding_and_restores_them():
    import simplegames
    from simplegames import alpha, graphs, lp, minnorm

    original = lp.solve_lp
    t = tracer.Tracer()
    t.install()
    try:
        for module in (simplegames, alpha, graphs, lp, minnorm):
            assert module.solve_lp is not original
        game = simplegames.cycle_game(4)
        t.instance = 0
        assert simplegames.compute_alpha_exact(game).alpha == 1
        g = simplegames.cycle_graph(5)
        assert len(list(simplegames.enumerate_mis(g))) == 5
    finally:
        t.uninstall()
    for module in (simplegames, alpha, graphs, lp, minnorm):
        assert module.solve_lp is original
    totals = tracer.layer_totals(t.spans)
    assert totals["lp.solve_lp"]["calls"] == 1
    assert spans_parent(t.spans, "lp.solve_lp") == "alpha.compute_alpha_exact"
    assert totals["graphs.enumerate_mis"]["sum"]["items"] == 5


def spans_parent(spans, name):
    span = next(s for s in spans if s[0] == name)
    return spans[span[3]][0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_relabel_the_same_instances(workload):
    import simplegames as sg
    import workloads

    first, second = (workloads.generate(workload, seed, "tiny") for seed in (1, 2))
    assert [(i["index"], i["n"], i.get("kind")) for i in first] == [(i["index"], i["n"], i.get("kind")) for i in second]
    assert [workloads._key(i) for i in first] != [workloads._key(i) for i in second]
    if workload == "graph-cuts":
        value = lambda inst: sg.mwis_exact(sg.graph_from_json(inst), [1] * inst["n"]).weight
    else:
        value = lambda inst: sg.compute_alpha_exact(sg.game_from_json(inst)).alpha
    assert [value(i) for i in first] == [value(i) for i in second]


def test_without_src_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
