"""Self-tests of the benchmark harness: span arithmetic, attribute
restoration after tracing, failure counting, and agreement between the
harness and BENCHMARK.json.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os

import pytest

import inputs
import jobs as J
import run
import tracing as TC
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _span(name, parent, t0, t1, kind=None, built_in=None):
    return [name, parent, t0, t1, kind, built_in]


def test_self_time_on_nested_span_tree():
    spans = [
        _span("root", None, 0.0, 10.0),                 # 0
        _span("attention.joint", 0, 1.0, 5.0),          # 1
        _span("op", 1, 1.5, 2.5, "matmul"),             # 2
        _span("op", 1, 3.0, 3.5, "softmax"),            # 3
        _span("encoder", 0, 5.0, 8.0),                  # 4, not reported
        _span("op", 4, 6.0, 7.0, "gelu"),               # 5
        _span("tensor.backward", 0, 8.0, 9.5),          # 6
        _span("vjp", 6, 8.2, 8.6, "matmul", 2),         # 7, node built in span 2
        _span("vjp", 6, 8.6, 9.4, "gelu", 5),           # 8
    ]
    own = TC.self_times(spans)
    assert own == pytest.approx([10 - 4 - 3 - 1.5, 4 - 1 - 0.5, 1, 0.5, 3 - 1, 1, 1.5 - 1.2,
                                 0.4, 0.8])
    assert sum(own) == pytest.approx(10.0)

    got = TC.charge(spans, {"attention.joint", "root"})
    assert got["tensor.matmul.fwd"] == pytest.approx(1.0)
    assert got["tensor.gelu.fwd"] == pytest.approx(1.0)
    assert got["tensor.matmul.bwd"] == pytest.approx(0.4)
    assert got["tensor.gelu.bwd"] == pytest.approx(0.8)
    assert got["tensor.backward_self"] == pytest.approx(0.3)
    # the attention scope takes its own self time plus its ops
    assert got["attention.joint.fwd"] == pytest.approx(2.5 + 1.0 + 0.5)
    assert got["attention.joint.bwd"] == pytest.approx(0.4)
    # the unreported encoder is transparent: it and its gelu go to root
    assert got["root.fwd"] == pytest.approx(1.5 + 2.0 + 1.0)
    assert got["root.bwd"] == pytest.approx(0.8)


def test_scope_names_and_seconds():
    layers = ["tensor.gelu.fwd_ms", "embedding.fwd_ms", "embedding.bwd_ms",
              "mae.mask_ms", "attention.temporal.bwd_ms", "tensor.nodes_per_clip"]
    assert TC.scopes_for(layers) == {"embedding", "mae.mask", "attention.temporal"}
    charged = {"mae.mask.fwd": 1.0, "mae.mask.bwd": 0.5, "embedding.fwd": 2.0,
               "tensor.backward_self": 3.0}
    assert TC.seconds_for("mae.mask_ms", charged) == 1.5
    assert TC.seconds_for("embedding.fwd_ms", charged) == 2.0
    assert TC.seconds_for("embedding.bwd_ms", charged) == 0.0
    assert TC.seconds_for("tensor.backward_self_ms", charged) == 3.0


@pytest.fixture(scope="module")
def desk_sets(tmp_path_factory):
    return inputs.generate("desk", 5, str(tmp_path_factory.mktemp("desk")))


def _attributes():
    """Every attribute any harness patch touches, as currently bound."""
    seen = {}
    for patches in (TC.Tracer(), TC.GraphMemory(), TC.LogitCheck()):
        patches.install()
        try:
            for owner, attr, original in patches.saved:
                seen[(id(owner), attr)] = (owner, attr, original)
        finally:
            patches.uninstall()
    return list(seen.values())


@pytest.mark.parametrize("job_name", ["finetune_divided", "pretrain", "prep"])
def test_traced_run_restores_every_wrapped_attribute(desk_sets, tmp_path, job_name):
    before = _attributes()
    assert len(before) > 30
    job = J.make_job("desk", job_name, desk_sets, 5)
    job.build()
    res = worker.traced_metrics(job, 0.0, str(tmp_path / "spans.jsonl"))
    assert res["problems"] == [] and res["missing"] == []
    assert list(res["metrics"]) == J.layer_metrics(job_name)
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_untraced_calls_pass_output_checks(desk_sets):
    for name in J.JOBS:
        job = J.make_job("desk", name, desk_sets, 5)
        job.build()
        out, res = J.run_call(job)
        assert J.check_call(job, out, res) == [], name
        assert out.failed == 0


class _Raises(J.Job):
    name = "stub"
    attempted = 7

    def call(self):
        raise ValueError("crop size 224 exceeds frame 192x256")


def test_job_that_raises_counts_every_clip_failed():
    out, res = J.run_call(_Raises())
    assert res is None
    assert (out.ok, out.failed, out.attempted, out.done) == (0, 7, 7, 0)
    assert J.check_call(_Raises(), out, res) == [
        "stub: call raised ValueError: crop size 224 exceeds frame 192x256"]


def _call(error=None):
    ok = 0 if error else 2
    return {"wall": 1.0, "done": ok, "ok": ok, "attempted": 2, "losses": [0.5],
            "macs": 10, "attn_macs": 4, "error": error}


def _runs(timed_calls: int, failing_job: str = ""):
    setups = [{job: {"import_s": 0.1, "build_s": 0.1, "warm_s": 1.0, "warm": _call(),
                     "problems": []} for job in J.JOBS} for _ in range(run.ROUNDS)]
    timed = {job: {"calls": [_call("ValueError: x" if job == failing_job else None)
                             for _ in range(timed_calls)],
                   "peak_rss_mb": 50.0, "problems": []} for job in J.JOBS}
    return setups, timed


def test_end_to_end_counts_failed_calls_and_clips():
    metrics, attempted, failed, _ = run.end_to_end(*_runs(3, failing_job="prep"))
    assert attempted == len(J.JOBS) * (run.ROUNDS + 3)
    assert failed == 3
    # prep: warm-ups fine, every timed call failed, so half its clips failed
    assert metrics["clips_ok_frac"] == pytest.approx((5 + 1 / 2) / 6)
    assert metrics["prep_clips_per_s"] == 0.0
    assert metrics["finetune_joint_clips_per_s"] == 2.0
    assert metrics["setup_s"] == pytest.approx(len(J.JOBS) * 1.2)


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [n for job in J.JOBS for n in J.layer_metrics(job)]
    assert len(per_layer) == 127
    assert all(m["unit"] == J.unit_of(m["name"]) for m in spec["per_layer"])
    metrics, _, _, _ = run.end_to_end(*_runs(1))
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(metrics)
    assert [w["name"] for w in spec["workloads"]] == list(J.GEOMETRIES)
