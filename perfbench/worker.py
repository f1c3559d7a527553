"""Run one benchmark job in its own process, talking JSON lines on stdout.

The process imports vslr, builds the job's model and makes one untimed
warm-up call with output checks; those three are its set-up time, reported
in its first line.  Then it serves commands on stdin: ``call <seconds>``
makes timed calls for that long and reports them, ``end`` reports peak RSS
and exits.  With ``--trace-budget`` it instead alternates plain and traced
calls, reports per-layer metrics in its one line, and writes the spans of
its traced calls to ``--spans``.

Started by ``perfbench/run.py``, which sets PYTHONPATH and pins BLAS threads.
"""

import argparse
import json
import sys
import time


def peak_rss_mb() -> float:
    """High-water RSS of this process image (VmHWM), in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_calls(job, budget: float) -> tuple:
    """Calls until `budget` seconds have passed, at least one."""
    import jobs as J

    clock = time.perf_counter
    calls, problems = [], []
    start = clock()
    while True:
        out, res = J.run_call(job)
        calls.append(out)
        problems += J.check_call(job, out, res)
        if clock() - start >= budget:
            return calls, problems


def traced_metrics(job, budget: float, spans_path: str) -> dict:
    """Pairs of (plain, traced) calls until the budget is spent, at least
    two pairs, then one call under tracemalloc for the graph size."""
    import jobs as J
    import tracing as TC

    clock = time.perf_counter
    names = J.layer_metrics(job.name)
    layers = [n[len(job.name) + 1:] for n in names]
    scopes = TC.scopes_for(layers)
    plain, traced, problems = [], [], []
    charged: dict = {}
    counts = []
    start = clock()
    with open(spans_path, "w", encoding="utf-8") as dump:
        while len(traced) < 2 or clock() - start < budget:
            out, res = J.run_call(job)
            plain.append(out)
            with TC.Tracer(job.mae_model()).install() as tracer:
                out, res = J.run_call(job)
            traced.append(out)
            if res is None:
                problems.append(f"{job.name}: traced call raised {out.error}")
                break
            for key, sec in TC.charge(tracer.spans, scopes).items():
                charged[key] = charged.get(key, 0.0) + sec
            encoder_calls = sum(1 for sp in tracer.spans if sp[0] == "mae.encoder")
            counts.append((tracer.nodes, out.macs, out.attn_macs, encoder_calls,
                           tracer.weights_bytes, out.done))
            for sp in tracer.spans:     # [traced call, name, parent, t0, t1, kind, built_in]
                dump.write(json.dumps([len(traced) - 1] + sp) + "\n")
    with TC.GraphMemory().install() as mem:
        J.run_call(job)
    if len(set(counts)) > 1:
        problems.append(f"{job.name}: counts differ between traced calls: {counts}")
    if not counts:
        return {"metrics": dict.fromkeys(names, 0.0), "problems": problems,
                "overhead": 0.0, "traced_calls": 0, "missing": tracer.missing}

    clips = sum(c[5] for c in counts) or 1
    nodes, macs, attn_macs, encoder_calls, weights, done = counts[0]
    done = done or 1
    values = {
        "tensor.nodes_per_clip": nodes / done,
        "tensor.macs_per_clip": macs / done,
        "tensor.graph_mb": mem.peak / 2 ** 20,
        "attention.macs_per_clip": attn_macs / done,
        "attention.weights_mb": weights / done / 2 ** 20,
        "mae.encoder_calls_per_step": encoder_calls / job.g.mae_steps,
    }
    metrics = {}
    for name, layer in zip(names, layers):
        if layer.endswith("_ms"):
            metrics[name] = 1000.0 * TC.seconds_for(layer, charged) / clips
        else:
            metrics[name] = values[layer]
    wall_plain = sum(o.wall for o in plain) / len(plain)
    wall_traced = sum(o.wall for o in traced) / len(traced)
    return {"metrics": metrics, "problems": problems,
            "overhead": (wall_traced - wall_plain) / wall_plain,
            "traced_calls": len(traced), "missing": tracer.missing}


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--job", required=True)
    ap.add_argument("--sets", required=True, help="JSON {set name: directory}")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-budget", type=float, default=0.0,
                    help="trace for this many seconds instead of serving calls")
    ap.add_argument("--spans", default="")
    args = ap.parse_args()
    clock = time.perf_counter

    t_import = clock()
    import vslr.mae  # noqa: F401  pulls in numpy and the whole model stack
    import vslr.train  # noqa: F401
    import_s = clock() - t_import

    import jobs as J
    import tracing as TC

    t_build = clock()
    job = J.make_job(args.workload, args.job, json.loads(args.sets), args.seed)
    job.build()
    build_s = clock() - t_build

    with TC.LogitCheck().install() as logits:
        warm, res = J.run_call(job)
    problems = J.check_call(job, warm, res)
    if job.name.startswith(("finetune", "eval")) and not (logits.forwards and logits.finite):
        problems.append(f"{job.name}: {logits.forwards} forwards, logits finite={logits.finite}")
    ready = {"job": job.name, "import_s": import_s, "build_s": build_s,
             "warm_s": warm.wall, "warm": warm.__dict__, "problems": problems}

    if args.trace_budget:
        ready.update(traced_metrics(job, args.trace_budget, args.spans))
        ready["problems"] = problems + ready["problems"]
        emit(ready)
        return 0

    # serve: "call <seconds>" makes timed calls for that long, "end" stops
    emit(ready)
    calls = []
    for line in sys.stdin:
        cmd = line.split()
        if cmd[:1] != ["call"]:
            break
        more, found = timed_calls(job, float(cmd[1]))
        calls += more
        emit({"calls": [c.__dict__ for c in more], "problems": found})
    problems = []
    if args.workload == "desk" and job.name.startswith("finetune") and calls:
        first = sum(warm.losses) / len(warm.losses)
        last = sum(calls[-1].losses) / len(calls[-1].losses)
        if not last < first:
            problems.append(f"{job.name}: loss did not fall ({first:.6f} -> {last:.6f})")
    emit({"peak_rss_mb": peak_rss_mb(), "problems": problems})
    return 0


if __name__ == "__main__":
    sys.exit(main())
