"""pcx benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package need not be installed; workers
get PYTHONPATH=src).  Each run starts fresh worker processes, one after
another, each a closed loop with one client: import `pcx`, load the
shipped zero table, build the structure function, run the workload's
fixed script once, then its single-point queries.  New workers start
while the next one is expected to end within S seconds (at least one);
extra set-up-only processes follow until five set-up times are in hand.
Inputs (beta/alpha samples, the query list, the first-2,000-ordinates
file) come from --seed; workers receive only the generated inputs.  Every
operation is checked against perfbench/refs.json after the timed region;
a miss, a raised exception or a nonzero CLI exit code counts as failed
and makes the command exit 1.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.

Workloads (BLAS/OpenMP threads capped at nproc, PCX_THREADS unset):
  analytic  pcx bounds --beta 0.05:10:0.005; bounds --delta 2 --epsilon
            0.001; twodelta --one-delta; twodelta --beta 0.5:40:0.5;
            gaps --tol 1e-8; gaps --profile.  Queries: 200 single-beta
            `pcx bounds --beta b`, b between the script's grid points.
            pcbounds lattice series dominate; no zerodata/debranges work.
  nodes     pcx debranges; 8 x lambda_values(beta) with two_delta(beta),
            beta in (0.3, 8) kept 1e-3 from every A/B zero; case3_majorant
            at 3 beta below the first A-zero; quadrature_check on A and B
            nodes; verify_hb(1000).  Queries: 4 x lambda_values(beta).
            kernel evaluation and scalar root finding dominate; no pcbounds.
  pairs     pcx empirical --zeros <shipped> --beta 0.5:3:0.05; 3 x
            empirical_F(alpha) at n = 10^4; pcx empirical --falpha
            0:1.5:0.25 on the first 2,000 ordinates; weighted_pair_sum of
            the beta = 1 Selberg majorant at n = 2,000.  Queries: 3 x
            empirical_F(alpha) at n = 10^4.  Dense O(n^2) sums dominate.

End-to-end metrics (--trace 0):
  wall_s        s      median over workers of the fixed script's time
  query_p50_ms  ms     median query latency over all workers
  setup_s       s      median over processes of import pcx + load_zeros +
                       build_E, the cost every pcx process pays first
  peak_rss_mb   MB     largest worker peak RSS (getrusage), read before
                       the checks
  Also printed, not in the JSON line: query_p90_ms (only with at least
  ten samples beyond it) and ops_failed_frac = failed / attempted.

Timings are scaled to a reference host speed.  On a shared host the speed
of this code drifts by +/-25% within seconds, which no run of affordable
length averages out.  Each worker therefore times a calibration loop
shaped like the workload's dominant work (workloads.calibration; it runs
no pcx code) just before and after every operation, and every timing is
reported as measured seconds x CAL_REF_S[workload] / (mean of the two
calibration times); set-up uses the first calibration after it.  A change
to pcx moves the operation times and not the calibration loop, so the
scaled figures compare commits; the unscaled medians are printed too.

Per-layer metrics (--trace 1): one untraced and one traced worker run the
same plan; the traced one wraps every public function of cli, numerics,
beurling, pcbounds, kernel, debranges, gaps and zerodata (see spans.py).
Units: s, count, points, pairs, pairs/s, evals/root, points/call, frac.
Each metric, then the end-to-end metric and workload it should move:
  <layer>.self_s (all eight layers)        span time minus child spans;
      cli.self_s -> query_p50_ms on analytic
  numerics.quad_calls/quad_points/quad_s   -> wall_s on analytic, nodes
  numerics.root_calls/root_evals/root_evals_per_root/root_s
                                           -> wall_s, query_p50_ms on
                                              nodes; wall_s on analytic
  numerics.deriv_points                    -> query_p50_ms on nodes
  numerics.nonconvergence                  -> ops_failed_frac, all
  pcbounds.m_selberg_calls/m_selberg_s/conjecture_s
                                           -> wall_s, query_p50_ms on
                                              analytic (small on pairs)
  kernel.eval_calls/eval_points/points_per_call/eval_s
                                           -> query_p50_ms on nodes
  debranges.build_E_s                      -> setup_s on nodes
  debranges.tilt_calls/tilt_s/case3_s/verify_hb_s/quadrature_check_s
                                           -> wall_s, query_p50_ms on nodes
  gaps.profile_calls/profile_s/threshold_s -> wall_s on analytic
  beurling.eval_points/eval_s              -> wall_s on pairs
  zerodata.load_s                          -> setup_s
  zerodata.F_calls/F_s/nominal_pairs/nominal_pairs_per_s/wps_s/
      count_pairs_s                        -> wall_s, query_p50_ms,
                                              peak_rss_mb on pairs
  trace_overhead_frac   traced / untraced operation wall time - 1
nominal_pairs is the sum of n^2 over the windows of the dense pair sums,
as the current code computes them.

--scale tiny and --refs exist for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as W  # noqa: E402

END_TO_END = {"wall_s": "s", "query_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
# Reported timings are scaled to these calibration-loop times, the medians
# measured on the host the bounds were set on (see CALIBRATION.md).
CAL_REF_S = {"analytic": 0.0042, "nodes": 0.0027, "pairs": 0.052}
MAX_WORKERS = 8
RUN_LIMIT_S = 170.0


def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def worker_env(nproc):
    env = dict(os.environ)
    env.pop("PCX_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


class Runner:
    """Starts workers for one run and keeps what they report."""

    def __init__(self, args, work, env, t_begin):
        self.args = args
        self.work = work
        self.env = env
        self.t_begin = t_begin
        self.files = {"10000": str(ROOT / W.SHIPPED)}
        self.count = 0

    def worker(self, ops, trace=False):
        """Run one worker process; returns (report or None, seconds)."""
        for n in W.prefix_sizes(ops):
            if str(n) not in self.files:
                path = self.work / f"zeros_first_{n}.txt"
                W.write_prefix(ROOT / W.SHIPPED, path, n)
                self.files[str(n)] = str(path)
        self.count += 1
        spec_path = self.work / f"spec_{self.count}.json"
        spec = {"workload": self.args.workload, "ops": ops, "trace": trace,
                "files": self.files, "refs": str(self.args.refs)}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = RUN_LIMIT_S - (time.perf_counter() - self.t_begin)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            print(f"worker {self.count}: timed out", file=sys.stderr)
            return None, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker {self.count}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None, seconds
        return json.loads(lines[-1]), seconds


def tally(plans, reports):
    attempted = failed = 0
    for ops, rep in zip(plans, reports):
        attempted += len(ops)
        if rep is None:
            failed += len(ops)
            continue
        for op in rep["ops"]:
            if op["error"] is not None:
                failed += 1
                print(f"FAILED {op['name']} ({op['phase']}): {op['error']}", file=sys.stderr)
    return attempted, failed


def run_untraced(args, runner):
    refs = W.load_refs(args.refs)
    plans, reports = [], []
    t_start = time.perf_counter()
    while True:
        ops = W.plan(args.workload, args.seed, len(plans), args.scale, refs)
        rep, seconds = runner.worker(ops)
        plans.append(ops)
        reports.append(rep)
        elapsed = time.perf_counter() - t_start
        if rep is None or len(plans) >= MAX_WORKERS or elapsed + seconds > args.seconds:
            break
    attempted, failed = tally(plans, reports)
    if None in reports:
        return attempted, failed, None, []
    setup_reports = list(reports)
    while len(setup_reports) < W.SCALES[args.scale]["min_setups"]:
        rep, _ = runner.worker([])
        if rep is None:
            return attempted, failed, None, []
        setup_reports.append(rep)
    ref = CAL_REF_S[args.workload]
    setups = {k: statistics.median(r[k] for r in setup_reports)
              for k in ("setup_s", "import_s", "load_s", "build_E_s")}

    def phase(rep, name, scaled=True):
        return [o["seconds"] * (ref / o["cal_s"] if scaled else 1.0)
                for o in rep["ops"] if o["phase"] == name]

    walls = [sum(phase(r, "script")) for r in reports]
    queries = sorted(1000.0 * q for r in reports for q in phase(r, "query"))
    metrics = {
        "wall_s": statistics.median(walls),
        "query_p50_ms": statistics.median(queries),
        "setup_s": statistics.median(r["setup_s"] * ref / r["setup_cal_s"]
                                     for r in setup_reports),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    raw_wall = statistics.median(sum(phase(r, "script", False)) for r in reports)
    raw_q = statistics.median(1000.0 * q for r in reports for q in phase(r, "query", False))
    cal_ms = 1000.0 * statistics.median(o["cal_s"] for r in reports for o in r["ops"])
    notes = [f"timings scaled to a {1000 * ref:g} ms calibration loop (this run's "
             f"median {cal_ms:.4f} ms); unscaled medians: wall_s {raw_wall:.4f} s, "
             f"query_p50_ms {raw_q:.4f} ms, setup_s {setups['setup_s']:.4f} s",
             f"wall_s: median of {len(walls)} script runs",
             f"query_p50_ms: median of {len(queries)} queries"]
    beyond = len(queries) - int(0.9 * len(queries)) - 1
    if beyond >= 10:
        notes.append(f"query_p90_ms = {queries[int(0.9 * len(queries))]:.6g} ms "
                     f"({beyond} samples beyond it)")
    else:
        notes.append(f"query_p90_ms: not reported, {len(queries)} samples "
                     "leave fewer than 10 beyond it")
    notes += [f"setup_s: median of {len(setup_reports)} processes (unscaled medians: import "
              f"{setups['import_s']:.4f} s, load_zeros {setups['load_s']:.4f} s, "
              f"build_E {setups['build_E_s']:.4f} s)",
              f"peak_rss_mb: max of {len(reports)} workers"]
    return attempted, failed, metrics, notes


def run_traced(args, runner):
    refs = W.load_refs(args.refs)
    ops = W.plan(args.workload, args.seed, 0, args.scale, refs)
    plain, _ = runner.worker(ops)
    traced, _ = runner.worker(ops, trace=True) if plain else (None, 0.0)
    attempted, failed = tally([ops, ops], [plain, traced])
    if plain is None or traced is None:
        return attempted, failed, None, []
    metrics = dict(traced["layer_metrics"])

    def scaled_ops(rep):
        return sum(o["seconds"] / o["cal_s"] for o in rep["ops"])

    metrics["trace_overhead_frac"] = scaled_ops(traced) / scaled_ops(plain) - 1.0
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    notes = [f"traced wall {traced['traced_wall_s']:.4f} s (set-up after import "
             f"+ operations), layer self times sum to {layer_self:.4f} s",
             f"operations: untraced {plain['ops_s']:.4f} s, traced "
             f"{traced['ops_s']:.4f} s (unscaled)",
             "top spans by self time:"]
    notes += [f"  {s['span']:<40} {s['calls']:>9} calls {s['self_s']:10.4f} s"
              for s in traced["top_spans"][:15]]
    return attempted, failed, metrics, notes


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget for starting new workers")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(W.SCALES), default="full")
    p.add_argument("--refs", type=Path, default=W.REFS_PATH)
    return p.parse_args(argv)


def _stop(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the worker
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    t_begin = time.perf_counter()
    missing = [p for p in (ROOT / "src" / "pcx" / "__init__.py", ROOT / W.SHIPPED,
                           args.refs) if not Path(p).is_file()]
    if missing:
        print("perfbench: missing " + ", ".join(map(str, missing)), file=sys.stderr)
        return 2
    info = machine_info()
    print(f"pcx benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))

    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args, work, worker_env(info["nproc"]), t_begin)
        run = run_traced if args.trace else run_untraced
        attempted, failed, metrics, notes = run(args, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    units = spans.METRICS if args.trace else END_TO_END
    correct = metrics is not None and failed == 0
    for note in notes:
        print(note)
    for name, value in (metrics or {}).items():
        print(f"{name:<34} {value:.6g} {units[name]}")
    print(f"ops_failed_frac = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in (metrics or {}).items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
