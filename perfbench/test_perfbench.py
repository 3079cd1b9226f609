"""Tests for the benchmark itself (not the program).

    python3 -m pytest perfbench -q

They run every workload at toy sizes, so they take seconds, not minutes.
"""

from perfbench import env

env.prepare()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import run, workloads as wl  # noqa: E402
from perfbench.tracing import NAME, Tracer, self_time  # noqa: E402

TINY = {
    "pretrain_sae": dict(n_patches=200, patch=8, images=2, image_px=32,
                         widths=(16, 8), epochs=1, batch=50),
    "train_dbn_parallel": dict(n_train=128, n_heldout=64, digit_px=8, widths=(16, 8),
                               epochs=1, batch=16, ft_epochs=1, chunk_batches=2,
                               accuracy_floor=0.0),
    "serve_skewed": dict(pool=64, widths=(256, 16, 10), cache_entries=16,
                         nominal_rps=400.0, segments=2),
    "serve_sharded": dict(pool=64, patch=8, images=2, image_px=32, widths=(16, 8),
                          nominal_rps=400.0, segments=2),
}
SECONDS = 0.5
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _setup(name, seed):
    return wl.WORKLOADS[name].setup(seed, SECONDS, size=TINY[name])


def _fingerprint(state) -> str:
    h = hashlib.sha256()
    for attr in ("x", "payloads", "labels"):
        if hasattr(state, attr):
            h.update(np.ascontiguousarray(getattr(state, attr)).tobytes())
    for times, keys in getattr(state, "traces", []):
        h.update(times.tobytes())
        h.update(keys.tobytes())
    for attr in ("model_seed", "model_seeds", "seeds"):
        h.update(repr(getattr(state, attr, None)).encode())
    return h.hexdigest()


def _benchmark_json() -> dict:
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_limits():
    spec = _benchmark_json()
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_determines_inputs(name):
    a, b, c = _setup(name, 1), _setup(name, 1), _setup(name, 2)
    assert _fingerprint(a) == _fingerprint(b)
    assert _fingerprint(a) != _fingerprint(c)


@pytest.mark.parametrize("name", ["pretrain_sae", "train_dbn_parallel"])
def test_traced_training_matches_untraced(name):
    workload = wl.WORKLOADS[name]
    state = _setup(name, 3)
    plain = workload.run(state, 0.0, Tracer(enabled=False))
    tracer = Tracer(enabled=True)
    traced = workload.run(state, 0.0, tracer)
    assert plain.outputs == traced.outputs
    assert plain.failures == traced.failures == []
    assert tracer.coverage("bench.rep") >= 0.9


@pytest.mark.parametrize("name", ["serve_skewed", "serve_sharded"])
def test_traced_serving_matches_untraced(name):
    workload = wl.WORKLOADS[name]
    state = _setup(name, 3)
    plain = workload.run(state, SECONDS, Tracer(enabled=False), full=False)
    tracer = Tracer(enabled=True)
    traced = workload.run(state, SECONDS, tracer, full=False)
    # Batch composition depends on timing, so answers agree to rounding.
    assert wl.answers_agree(plain.outputs, traced.outputs)
    assert plain.failures == traced.failures == []
    assert {"serve.submit", "nn.forward"} <= {s[NAME] for s in tracer.spans}
    shares = [v for k, (v, _) in traced.details.items() if k.startswith("busy_share.")]
    assert shares and 0.0 < sum(shares) <= 1.0


def test_answers_agree_tolerance():
    a = {"keys": [[1, 2]], "answer_sums": [[1.0, float("nan")]]}
    assert wl.answers_agree(a, {"keys": [[1, 2]], "answer_sums": [[1.0 + 1e-10, float("nan")]]})
    assert not wl.answers_agree(a, {"keys": [[1, 2]], "answer_sums": [[1.0 + 1e-8, float("nan")]]})
    assert not wl.answers_agree(a, {"keys": [[1, 2]], "answer_sums": [[1.0, 2.0]]})
    assert not wl.answers_agree(a, {"keys": [[2, 1]], "answer_sums": [[1.0, float("nan")]]})


def test_self_time_and_layer_folding():
    tracer = Tracer(enabled=True)
    with tracer.span("bench.rep"):
        with tracer.span("nn.outer"):
            with tracer.span("nn.inner"):  # same layer: folded
                pass
            with tracer.span("train.child"):
                sum(range(10000))
    names = [s[NAME] for s in tracer.spans]
    assert "nn.inner" not in names
    spans = {s[NAME]: s for s in tracer.spans}
    outer, child = spans["nn.outer"], spans["train.child"]
    assert self_time(outer) == pytest.approx(
        (outer[5] - outer[4]) - (child[5] - child[4]))
    assert tracer.coverage("bench.rep") <= 1.0


def test_chrome_trace_is_valid_json(tmp_path):
    tracer = Tracer(enabled=True)
    with tracer.span("bench.rep"):
        with tracer.span("nn.x"):
            pass
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["name"] for e in events} == {"bench.rep", "nn.x"}
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_cli_prints_result_json(capsys):
    assert run.main(["--workload", "pretrain_sae", "--seed", "4",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m[0] for m in run.PER_LAYER]
    assert result["metrics"]["trace.self_coverage"]["value"] >= 0.9


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(env.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain_sae",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
