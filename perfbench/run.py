"""The repository benchmark: clips/s, set-up time and peak memory for
fine-tune, MAE pretraining, evaluation and clip preparation.

    python3 perfbench/run.py --workload desk|paper --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/vslr``.  The inputs are
generated from the seed under ``.perfbench_run/`` and removed at the end.
Each job runs in its own worker process (``worker.py``) with BLAS pinned to
one thread, and only one worker computes at a time.

``--trace 0`` sets every job up ROUNDS times and reports the end-to-end
metrics; the raw per-call records go to ``.perfbench_run/<workload>-calls.json``.
``--trace 1`` runs each job once with spans recorded around vslr's public
functions and reports the per-layer metrics and the tracing overhead.
The last line of output is one JSON object: correct, attempted, failed,
metrics.  Exit code 2 means there is no program to measure.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
ROUNDS = 3              # set-ups per job in an untraced run; setup_s is their median
SLICE_S = 0.05          # a job's timed turn: calls until this long has passed, at least one
RUN_LIMIT_S = 170.0     # a whole run must end well inside 180 s

E2E_UNITS = {"setup_s": "s", "train_peak_rss_mb": "MiB", "eval_peak_rss_mb": "MiB",
             "clips_ok_frac": "ratio"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class ChildError(RuntimeError):
    pass


class Child:
    """A worker process for one job: JSON lines on its stdout, commands on
    its stdin.  `close` always leaves the process ended and reaped."""

    def __init__(self, args, job: str, sets: dict, deadline: float,
                 trace_budget: float = 0.0, spans: str = ""):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--job", job, "--sets", json.dumps(sets), "--seed", str(args.seed)]
        if trace_budget:
            cmd += ["--trace-budget", f"{trace_budget:.3f}", "--spans", spans]
        self.job, self.deadline = job, deadline
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def read(self) -> dict:
        left = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, left))
        if not ready:
            raise ChildError(f"{self.job}: no answer within the run's time limit")
        line = self.proc.stdout.readline()
        if not line:
            raise ChildError(f"{self.job}: worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setups: list, timed: dict) -> tuple:
    """Metrics from the set-up records ([{job: record}] per round) and the
    timed calls ({job: {"calls", "peak_rss_mb"}}).  Returns (metrics, calls
    attempted, calls failed, problems)."""
    import jobs as J

    metrics, problems = {}, []
    attempted = failed = 0
    ok_share = att_share = 0.0
    for job in J.JOBS:
        calls = [r[job]["warm"] for r in setups] + timed[job]["calls"]
        attempted += len(calls)
        failed += sum(1 for c in calls if c["error"] is not None)
        # every call of a job works on the same clips, so weigh jobs equally
        ok_share += sum(c["ok"] for c in calls) / len(calls)
        att_share += sum(c["attempted"] for c in calls) / len(calls)
        # best of N calls: load from other tenants only ever slows a call down
        rates = [c["done"] / c["wall"] for c in timed[job]["calls"] if c["error"] is None]
        metrics[f"{job}_clips_per_s"] = max(rates, default=0.0)
        warm = {json.dumps([r[job]["warm"][k] for k in ("losses", "macs", "attn_macs")])
                for r in setups}
        if len(warm) > 1:
            problems.append(f"{job}: warm-up losses or MAC counts differ between set-ups")
    metrics["setup_s"] = median([sum(rec["import_s"] + rec["build_s"] + rec["warm_s"]
                                     for rec in r.values()) for r in setups])
    metrics["train_peak_rss_mb"] = max(timed[j]["peak_rss_mb"] for j in J.TRAIN_JOBS)
    metrics["eval_peak_rss_mb"] = max(timed[j]["peak_rss_mb"] for j in J.EVAL_JOBS)
    metrics["clips_ok_frac"] = ok_share / att_share
    return metrics, attempted, failed, problems


def digest(setup: dict) -> str:
    """Hash of every job's warm-up losses and MAC counts, equal between runs
    of one seed on the same code."""
    warm = {job: [rec["warm"][k] for k in ("losses", "macs", "attn_macs")]
            for job, rec in setup.items()}
    return hashlib.sha256(json.dumps(warm, sort_keys=True).encode()).hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("desk", "paper"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    # on SIGTERM unwind through the finally blocks: workers end, inputs go
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(SRC, "vslr")):
        sys.stderr.write(f"error: no vslr sources under {SRC}\n")
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy as np

    import inputs
    import vslr.mae  # noqa: F401  compiles bytecode before any set-up is timed
    import vslr.train  # noqa: F401

    print(f"env: numpy {np.__version__}, python {platform.python_version()}, "
          f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu_model()}, BLAS threads 1")
    data = os.path.join(RUN_DIR, f"data-{os.getpid()}")
    os.makedirs(os.path.join(RUN_DIR, "spans"), exist_ok=True)
    try:
        sets = inputs.generate(args.workload, args.seed, data)
        if args.trace:
            return report_traced(args, sets, deadline)
        return report_end_to_end(args, sets, deadline)
    except ChildError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)


def run_end_to_end(args, sets: dict, deadline: float) -> tuple:
    """ROUNDS set-ups of every job, one after another; the last round's
    workers stay up and take short timed turns, round robin, so every job
    samples the host's fast and slow stretches alike across the whole run."""
    import jobs as J

    setups, live, timed, children = [], {}, {}, []
    try:
        for r in range(ROUNDS):
            setups.append({})
            for job in J.JOBS:
                child = Child(args, job, sets, deadline)
                children.append(child)
                setups[r][job] = child.read()
                if r < ROUNDS - 1:
                    child.close()
                else:
                    live[job] = child
                    timed[job] = {"calls": [], "problems": []}
        start = time.monotonic()
        while time.monotonic() - start < args.seconds:
            for job, child in live.items():
                rec = child.ask(f"call {SLICE_S}")
                timed[job]["calls"] += rec["calls"]
                timed[job]["problems"] += rec["problems"]
        for job, child in live.items():
            rec = child.ask("end")
            timed[job]["peak_rss_mb"] = rec["peak_rss_mb"]
            timed[job]["problems"] += rec["problems"]
    finally:
        for child in children:
            child.close()
    return setups, timed


def report_end_to_end(args, sets: dict, deadline: float) -> int:
    import jobs as J

    setups, timed = run_end_to_end(args, sets, deadline)
    with open(os.path.join(RUN_DIR, f"{args.workload}-calls.json"), "w", encoding="utf-8") as fh:
        json.dump({"setups": setups, "timed": timed}, fh)
    metrics, attempted, failed, problems = end_to_end(setups, timed)
    problems += [p for r in setups for rec in r.values() for p in rec["problems"]]
    problems += [p for job in J.JOBS for p in timed[job]["problems"]]
    for job in J.JOBS:
        walls = [c["wall"] for c in timed[job]["calls"]]
        losses = setups[0][job]["warm"]["losses"]
        print(f"{args.workload} {job}: {len(walls)} timed calls, wall best {min(walls):.4f} s, "
              f"median {median(walls):.4f} s; warm-up losses {[round(x, 6) for x in losses]}")
    print(f"{args.workload} digest {digest(setups[0])}")
    units = {name: E2E_UNITS.get(name, "clips/s") for name in metrics}
    return print_result(args.workload, metrics, units, problems, attempted, failed)


def report_traced(args, sets: dict, deadline: float) -> int:
    import jobs as J

    metrics, problems = {}, []
    attempted = failed = 0
    for job in J.JOBS:
        spans = os.path.join(RUN_DIR, "spans", f"{args.workload}-{job}.jsonl")
        child = Child(args, job, sets, deadline, args.seconds / len(J.JOBS), spans)
        try:
            rec = child.read()
        finally:
            child.close()
        problems += rec["problems"]
        attempted += 1 + 2 * rec["traced_calls"]
        failed += rec["warm"]["error"] is not None
        metrics.update(rec["metrics"])
        print(f"{args.workload} {job}: tracing overhead {100 * rec['overhead']:.1f}% "
              f"over {rec['traced_calls']} traced calls; spans in {os.path.relpath(spans, ROOT)}")
        if rec["missing"]:
            print(f"{args.workload} {job}: not found, so not traced: {rec['missing']}")
    units = {name: J.unit_of(name) for name in metrics}
    return print_result(args.workload, metrics, units, problems, attempted, failed)


def print_result(workload: str, metrics: dict, units: dict, problems: list,
                 attempted: int, failed: int) -> int:
    """Every metric by name with its unit, the failed checks, then the
    result object as the last line."""
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    for p in problems:
        print(f"check failed: {p}")
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
