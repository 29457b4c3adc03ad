#!/usr/bin/env bash
# Single-command smoke job: the full test suite, a repeated run of the
# scaling-driver tests (they must be deterministic — zero flaky reruns,
# including on 1-core hosts), one coarse benchmark, and a quick pass of the
# adaptive-truncation benchmark (accuracy assertions at reduced rounds).
#
# Usage:  scripts/smoke.sh
#   SMOKE_SCALING_RERUNS=N   number of consecutive scaling-driver runs (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== static contracts (repro.contracts over src) =="
# Gate first: the determinism/fork-safety analyzer must be clean before any
# runtime test spends cycles. Exit 0 means zero undisabled findings.
python -m repro.contracts check src
python -m pytest -q -p no:randomly tests/contracts

if python -c "import mypy" >/dev/null 2>&1; then
  echo "== mypy (pinned mypy.ini: lenient baseline, strict repro.contracts) =="
  python -m mypy --config-file mypy.ini
else
  echo "== mypy not installed; skipping (CI installs and runs it) =="
fi

echo "== full test suite =="
python -m pytest -q -p no:randomly tests

reruns="${SMOKE_SCALING_RERUNS:-3}"
echo "== scaling drivers x${reruns} (must pass every run) =="
for i in $(seq 1 "${reruns}"); do
  python -m pytest -q -p no:randomly tests/experiments/test_scaling_drivers.py
done

echo "== Section 6 study drivers: one Section 6 study path (repro.experiments.scaling) =="
# The CLI's scaling command and examples/parallel_scaling.py import the study
# functions lazily: run both end to end so a moved function fails here.
python -m pytest -q -p no:randomly tests/experiments/test_scaling_drivers.py \
  tests/parallel/test_executor.py tests/parallel/test_parallel_assembly.py
python -m pytest -q -p no:randomly tests/test_cli.py -k scaling
python examples/parallel_scaling.py --coarse --sharded

echo "== coarse benchmark (batched matrix generation) =="
python -m pytest -q -p no:randomly \
  benchmarks/bench_table_6_1_phase_times.py::test_matrix_generation_batched_speedup

echo "== adaptive truncation benchmark (quick mode) =="
BENCH_QUICK=1 python -m pytest -q -p no:randomly \
  benchmarks/bench_adaptive_truncation.py

echo "== hierarchical scaling benchmark (quick mode) =="
BENCH_QUICK=1 python -m pytest -q -p no:randomly \
  benchmarks/bench_hierarchical_scaling.py::test_hierarchical_scaling

echo "== sharded hierarchical benchmark + compact near and far payloads + one thread per process (quick mode, workers 0+1+2) =="
# Asserts that workers 1 and 2 reproduce the in-process workers=0 solution
# bit for bit (solution_rel_error == 0.0, identical PCG iterate counts)
# alongside the flagged-oversubscription rows, that every near block
# ships its worker-summed unique upper-triangle dof pairs, that every far
# block ships its factors summed per dof (the master's one summer call is
# the near field's; the ACA sample count comes from the block shape), that
# the master's pooled 32x32 peak stays within 2.75x the operator, and that
# pooled assembly, matvec, PCG and a concurrent-group campaign start no thread.
BENCH_QUICK=1 python -m pytest -q -p no:randomly \
  benchmarks/bench_hierarchical_scaling.py::test_sharded_hierarchical \
  tests/parallel/test_block_backend.py::TestCompactNearField \
  tests/parallel/test_block_backend.py::TestFarPayload \
  tests/parallel/test_pool_streaming.py::TestMasterPeak \
  tests/parallel/test_block_backend.py::TestOneThreadPerProcess

echo "== dense column fold (bitwise across workers and schedules, bounded fold transient) =="
# One dense driver (assemble_system is its one-worker case) folds fixed
# column groups (max_batch_size() columns) in ascending order: with the exact
# engine, serial assemble_system and assemble_system_parallel at {1,2}
# workers x five schedules must give one sha256 of matrix+rhs on the full
# Barbera mesh, chunks of any length and per-column timing the same bits, and
# shuffled stored columns the same matrix; with the adaptive engine the
# serial run and every one-worker schedule one sha256, and the
# one-column-per-call runs another.  The fold's traced peak must stay under
# half the stored columns, an ascending stream must free each group before
# the next, a one-worker run must peak within 1.5x the serial one, and a
# two-worker Dynamic,1 master, folding each chunk as it arrives, within 1.25x
# the bytes of every column's blocks.  The adaptive kernels' scratch
# workspace must stay within one 40k-element pass per slot after several
# meshes.
python -m pytest -q -p no:randomly \
  tests/parallel/test_parallel_assembly.py tests/bem/test_assembly.py \
  -k "Golden or Fold or FromColumns or exact or OneWorkerMemory or TwoWorkerMemory"
python -m pytest -q -p no:randomly \
  tests/bem/test_segment_integrals.py::TestWorkspaceBound

echo "== one Table 6.1 pipeline (CLI analyze, persistence, traced dense assembly at every worker count) =="
# GroundingAnalysis is the one five-phase pipeline: the CLI's analyze runs it
# and stores its files through save_results (full Barbera dof values bitwise
# equal to a direct run); a traced dense analysis records assemble.columns
# under phase.matrix_generation for parallel=None and 1 or 2 workers, with
# byte-identical canonical traces; the Table 6.1 bench finds matrix
# generation dominant (> 80 % of the pipeline).
python -m pytest -q -p no:randomly \
  tests/cad/ tests/integration/test_end_to_end.py \
  tests/bem/test_formulation.py::TestTracedAssembly
python -m pytest -q -p no:randomly tests/test_cli.py -k analyze
python -m pytest -q -p no:randomly benchmarks/bench_table_6_1_phase_times.py::test_table_6_1_phase_times

echo "== surface-potential maps (bounded working set, typed input errors) =="
# A 61x61 Barbera map must peak at most 1.5x a 21x21 one (tracemalloc), the
# pair-block size must move results only at float32 rounding, and bad points,
# margins and rasters must raise typed errors; the quick bench re-checks the
# adaptive-vs-exact contract on a 31x31 map.
python -m pytest -q -p no:randomly tests/bem/test_potential.py tests/bem/test_safety.py
BENCH_QUICK=1 python -m pytest -q -p no:randomly \
  benchmarks/bench_adaptive_truncation.py::test_adaptive_surface_potential_speedup

echo "== perf harness (traced quick run of every benchmark workload) =="
# The traced run resolves every layer wrapper of benchmarks/perf/layers.py, so
# a renamed or moved entry point (e.g. the hierarchical block builder) fails
# here instead of silently dropping a layer from the benchmark.
python -m pytest -q -p no:randomly benchmarks/perf/test_perf_harness.py

echo "== campaign mini-benchmark (quick mode, 6 scenarios, 2 pool workers) =="
# Asserts every campaign scenario matches its standalone GroundingAnalysis to
# 1e-10 and that solutions are bit-identical across pool worker counts {1,2}
# AND across group_concurrency {1,2} (concurrent structure groups multiplexed
# over the same 2-worker pool).
BENCH_QUICK=1 python -m pytest -q -p no:randomly \
  benchmarks/bench_campaign.py::test_campaign_batch

echo "== bench trend (fresh snapshots vs committed baselines; non-fatal) =="
# Quick-mode snapshots from the runs above land in benchmarks/results/; any
# wall time >1.25x its committed baseline is reported with its per-phase
# attribution. Advisory here (shared hosts jitter) — the committed baselines
# gate only via review.
python scripts/bench_trend.py --attribute \
  || echo "bench_trend: wall-time regression reported (advisory, not fatal)"

echo "== bench trend attribution exercise (perturbed snapshot must fail) =="
# End-to-end check of the --attribute gate itself: clone the committed
# BENCH_campaign.json, inflate one run's assemble phase and wall time, and
# require bench_trend to exit 1 *and* name the assemble phase.  Same-mode by
# construction (the perturbed copy keeps the committed snapshot's quick flag).
attribution_demo="benchmarks/results/attribution-demo"
python - "$attribution_demo" <<'PY'
import json, pathlib, sys
demo = pathlib.Path(sys.argv[1]); demo.mkdir(parents=True, exist_ok=True)
snapshot = json.loads(pathlib.Path("BENCH_campaign.json").read_text())
run = snapshot["campaign_runs"][0]
run["timings"]["assemble"] *= 2.0
run["wall_seconds"] *= 1.6
(demo / "BENCH_campaign.json").write_text(json.dumps(snapshot, indent=2))
PY
if python scripts/bench_trend.py --attribute \
     --fresh "$attribution_demo" > /tmp/attribution-demo.out 2>&1; then
  echo "bench_trend failed to flag the perturbed snapshot:"; cat /tmp/attribution-demo.out; exit 1
fi
grep -q "attribution: .*timings\.assemble" /tmp/attribution-demo.out \
  || { echo "bench_trend did not attribute the regression to assemble:"; cat /tmp/attribution-demo.out; exit 1; }
rm -rf "$attribution_demo"
echo "bench_trend --attribute correctly flagged and attributed the perturbation"

echo "== column kernel + parallel + cluster + campaign suites (one column path for dense and near field; 2-worker process pools) =="
python -m pytest -q -p no:randomly tests/parallel tests/cluster tests/campaign \
  tests/bem/test_influence.py tests/bem/test_adaptive_influence.py tests/bem/test_assembly.py

echo "== chaos matrix ({crash,hang,corrupt} x {assembly,matvec,campaign,dense}) =="
# Deterministic fault injection on a 2-worker pool: every recovered run must
# be bit-identical to the fault-free run (equal PCG iterate counts) and the
# PoolHealth counters must prove the fault fired.  The checkpoint/resume
# suite SIGKILLs a campaign mid-run and resumes it from its checkpoint; the
# group-concurrency suite repeats both under concurrent structure groups.
BENCH_QUICK=1 python -m pytest -q -p no:randomly \
  tests/resilience tests/campaign/test_checkpoint_resume.py \
  tests/campaign/test_group_concurrency.py

echo "== streamed pool results (frame digests, stale frames dropped, bounded master peak) =="
# Workers stream one digest-headed frame per finished task: a damaged first
# frame must be rejected once and retried with the rest of its dispatch
# dropped as stale (bitwise equal to a fault-free run), a pooled 32x32
# hierarchical assembly must keep the master's traced peak within 3.75x (and
# 2.75x) the operator, and RES001 must flag a bare recv_bytes() in
# repro.parallel.  A caller taking a run's finished chunks in flight must get
# every value once, also when a crashed or corrupted chunk is retried.
python -m pytest -q -p no:randomly tests/parallel/test_pool_streaming.py \
  tests/contracts/test_rules.py -k "CorruptFrame or MasterPeak or RES001 or Take"

echo "smoke: OK (zero flaky reruns)"
