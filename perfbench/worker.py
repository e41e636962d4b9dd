"""One benchmark worker: a fresh `pcx` process running one plan.

Usage (the runner starts it; PYTHONPATH must hold the repository's src):

    python3 perfbench/worker.py SPEC.json

It times its own set-up first (importing `pcx`, loading the shipped zero
table, building the structure function), then runs the plan's operations
one after another, each timed on its own.  Between operations, at least
every CAL_EVERY_S seconds of operation time, it times the workload's
calibration loop (median of three), so every operation has a calibration
sample just before and just after it.  With `"trace": true` in the spec
the span tracer is installed right after the import, so the rest of set-up
and every operation are traced.  Peak RSS is read before the correctness
checks, which run after the timed region.  The result is one JSON line on
stdout.
"""

import json
import resource
import statistics
import sys
import time
import traceback

CAL_EVERY_S = 0.25


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    clock = time.perf_counter

    t0 = clock()
    import pcx.cli  # noqa: F401  (imports every pcx module)
    t_import = clock() - t0

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    from pcx import debranges, zerodata
    t1 = clock()
    shipped = zerodata.load_zeros(spec["files"]["10000"])
    t2 = clock()
    debranges.build_E()
    t3 = clock()

    import workloads as W
    loop = W.calibration(spec["workload"])

    def calibrate():
        times = []
        for _ in range(3):
            ts = clock()
            loop()
            times.append(clock() - ts)
        return statistics.median(times)

    cals = [calibrate()]
    out = {"setup_s": t3 - t0, "import_s": t_import, "load_s": t2 - t1,
           "build_E_s": t3 - t2, "setup_cal_s": cals[0], "ops": []}
    if not spec["ops"]:
        print(json.dumps(out))
        return

    ctx = W.Context(spec["files"], W.load_refs(spec["refs"]), shipped)
    results = []
    since_cal = 0.0
    for i, op in enumerate(spec["ops"]):
        ts = clock()
        try:
            res, err = W.execute(op, ctx), None
        except Exception as exc:  # a raising operation counts as failed
            res, err = None, f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        dt = clock() - ts
        results.append([res, err, dt, len(cals) - 1])
        since_cal += dt
        if since_cal >= CAL_EVERY_S or i == len(spec["ops"]) - 1:
            cals.append(calibrate())
            since_cal = 0.0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ops_s"] = sum(r[2] for r in results)
    if tracer is not None:
        tracer.uninstall()
        out["traced_wall_s"] = (t3 - t1) + out["ops_s"]
        out["layer_metrics"], out["top_spans"] = tracer.metrics()

    for op, (res, err, dt, before) in zip(spec["ops"], results):
        if err is None:
            try:
                err = W.check(op, res, ctx.refs)
            except Exception as exc:  # a check that cannot run is a miss
                err = f"check raised {type(exc).__name__}: {exc}"
        out["ops"].append({"name": op["name"], "phase": op["phase"], "seconds": dt,
                           "cal_s": 0.5 * (cals[before] + cals[before + 1]),
                           "error": err})
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
