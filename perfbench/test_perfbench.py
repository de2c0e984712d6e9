"""Self-test of the benchmark (not part of the repository's tier-1 suite).

Run from the checkout root:  python3 -m pytest perfbench -q

It runs each workload once untraced and twice traced, so it takes about
half a minute.
"""

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import guard  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

glspaths = guard.import_glspaths()

TORBIT_CALLS = ["torbit.positive_wpi_roots.calls", "torbit.dist.calls",
                "torbit.find_a_chain.calls"]
CRYSTALS_CALLS = ["crystals.element_f.calls", "crystals.element_epsilon.calls",
                  "crystals.element_wt.calls", "crystals.bj_apply.calls"]
BFS = ["gls.bfs.expand_s", "gls.bfs.finalize_s", "gls.bfs.self_s", "gls.bfs.nodes",
       "gls.bfs.edges", "gls.bfs.layer_nodes.max"]

# per-layer metrics each workload is predicted to exercise (nonzero) ...
FIRES = {
    "crystal": ["rootdata.pairing.calls", "rootdata.reflect.calls",
                "rootdata.weight_arith.calls", "paths.scan.calls", "gls.gls_f.calls",
                "gls.gls_epsilon.calls", "gls.path_weight.calls",
                "character.char_of_graph.self_s", "character.wkb_series.self_s",
                "character.divide.self_s", "character.terms",
                "cli.load_context.self_s"] + BFS,
    "membership": ["rootdata.pairing.calls", "rootdata.weight_arith.calls",
                   "paths.apply_e.calls", "paths.h_profile.calls", "gls.gls_f.calls",
                   "gls.gls_e.calls", "gls.verify_gls.calls",
                   "torbit.find_a_chain.found_ratio", "torbit.roots_builds_per_chain",
                   "cli.load_context.self_s"] + TORBIT_CALLS + BFS,
    "battery": ["rootdata.pairing.calls", "paths.apply_f.calls", "paths.apply_e.calls",
                "paths.h_profile.calls", "gls.gls_f.calls", "gls.gls_e.calls",
                "gls.verify_gls.calls", "crystals.generate_from.self_s",
                "crystals.validate_axioms.self_s",
                "crystals.hw_crystal_isomorphic.self_s", "torbit.orbit.self_s",
                "cli.load_context.self_s", "checks.self_s"]
               + [f"checks.{c}.self_s" for c in tracing.CHECKS]
               + TORBIT_CALLS + CRYSTALS_CALLS + BFS,
}
# ... and predicted to leave untouched (zero); on crystal that is every
# torbit.*.calls
IDLE = {
    "crystal": TORBIT_CALLS + CRYSTALS_CALLS + [
        "paths.apply_f.calls", "paths.apply_e.calls", "paths.h_profile.calls",
        "gls.gls_e.calls", "gls.verify_gls.calls", "checks.self_s"],
    "membership": CRYSTALS_CALLS + ["paths.apply_f.calls", "character.terms",
                                    "checks.self_s"],
    "battery": [],
}

SEED = 7
_runs = {}


def traced_run(name):
    """Untraced outcomes, then two traced passes: (outcomes, snapshots)."""
    if name not in _runs:
        workload = workloads.WORKLOADS[name]
        outcomes = [workload.run(glspaths, SEED)]
        snapshots = []
        tracer = tracing.Tracer()
        with tracer:
            for _ in range(2):
                tracer.reset()
                outcomes.append(workload.run(glspaths, SEED))
                snapshots.append(tracing.snapshot(tracer))
        _runs[name] = (outcomes, snapshots)
    return _runs[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_pass_gate_and_match_with_tracing(name):
    outcomes, _ = traced_run(name)
    assert workloads.failures(outcomes[0]) == []
    assert len(outcomes[0]) == workloads.WORKLOADS[name].outputs
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_spans_fire_where_predicted(name):
    _, snapshots = traced_run(name)
    snap = snapshots[0]
    assert [m for m in FIRES[name] if not snap[m] > 0] == []
    assert [m for m in IDLE[name] if snap[m] != 0] == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name):
    _, (first, second) = traced_run(name)
    counts = [k for k in first if tracing.is_count(k)]
    assert all(k.endswith((".calls", "_ratio", ".terms", "_per_chain"))
               or k.startswith("gls.bfs.") for k in counts)
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_known_counts():
    _, (crystal, _) = traced_run("crystal")
    assert (crystal["gls.bfs.nodes"], crystal["gls.bfs.edges"]) == (3045, 4043)
    assert crystal["character.terms"] == 180


def test_wraps_every_binding_site_and_restores_it():
    before = {m: dict(vars(getattr(glspaths, m))) for m in tracing.LAYERS}
    add = glspaths.rootdata.Weight.__dict__["__add__"]
    gls_f = glspaths.gls.gls_f
    with tracing.Tracer():
        assert glspaths.gls.gls_f.__wrapped__ is gls_f
        assert glspaths.checks.gls_f is glspaths.gls.gls_f
        assert glspaths.gls.find_a_chain is glspaths.torbit.find_a_chain
        assert glspaths.checks.verify_gls is glspaths.gls.verify_gls
        assert glspaths.checks.dist is glspaths.torbit.dist
        assert glspaths.crystals.apply_e is glspaths.paths.apply_e
        assert glspaths.gls.apply_e is glspaths.paths.apply_e
        assert glspaths.cli.load_context is not glspaths.rootdata.load_context
        assert (glspaths.cli.load_context.__wrapped__
                is glspaths.rootdata.load_context.__wrapped__)
        assert glspaths.rootdata.Weight.__dict__["__add__"] is not add
    assert {m: dict(vars(getattr(glspaths, m))) for m in tracing.LAYERS} == before
    assert glspaths.rootdata.Weight.__dict__["__add__"] is add


def test_fixture_files_are_the_bundled_fixtures():
    fixtures = {fx[0]: fx for fx in glspaths.checks.FIXTURES}
    fixtures["two_imaginary"] = glspaths.checks.TWO_IMAGINARY
    for name in ("two_imaginary", "mixed_rank2"):
        matrix, bases = glspaths.rootdata.parse_context_text(
            (guard.FIXTURES / f"{name}.txt").read_text())
        assert [list(r) for r in matrix.entries] == fixtures[name][1]
        assert bases == {}


def test_gate_counts_mismatches():
    gate = run.Gate()
    gate.check([("a", 1, 1), ("b", 2, 3)])
    assert (gate.attempted, gate.failed) == (2, 1)


def test_reference_leaves_collector_as_found():
    assert reference.timed() > 0 and gc.isenabled()
    gc.disable()
    try:
        reference.timed()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_benchmark_json_matches_code():
    spec = json.loads((guard.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expected = {k: (unit, better) for k, (unit, better, _) in tracing.PER_LAYER.items()}
    expected.update(run.TRACE_METRICS)
    assert per_layer == expected


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(guard.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crystal",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "refusing to run" in proc.stderr
    assert "{" not in proc.stdout
