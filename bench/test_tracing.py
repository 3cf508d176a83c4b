"""Checks on the benchmark's tracing.

Every layer wrapper fires on each workload that exercises its layer, the
layers the densify path bypasses stay at zero calls on it, every wrapper is
restored afterwards, and the metric names match BENCHMARK.json.  Run from
the root of the repository:

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import harness  # noqa: E402
from tracing import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402

# layers only the superres path enters; box-densify-10k must never call them
SUPERRES_LAYERS = ("hull.", "losses.", "refine.", "edges.", "camera.", "pixmap.")


@pytest.fixture(scope="module", params=list(harness.WORKLOADS))
def traced(request, tmp_path_factory):
    """One traced frame of a workload."""
    wl = harness.WORKLOADS[request.param]
    work = tmp_path_factory.mktemp(request.param)
    run = harness.Run(wl, harness.make_inputs(wl, 0, work), work)
    tracer = Tracer()
    originals = [(owner, name, vars(owner)[name])
                 for owner, name, _, _ in tracer.targets()]
    tracer.begin_frame()
    with tracer:
        frame = run.frame(tracer)
    return wl, tracer, frame, originals


def test_wrappers_are_restored(traced):
    *_, originals = traced
    for owner, name, original in originals:
        assert vars(owner)[name] is original, f"{owner.__name__}.{name}"


def test_each_layer_fires_where_exercised(traced):
    wl, tracer, frame, _ = traced
    assert frame.error is None
    for _, _, span, _ in tracer.layers():
        calls = tracer.calls[span]
        if wl.superres or not span.startswith(SUPERRES_LAYERS):
            assert calls >= 1, f"{span} never fired on {wl.shape}"
        else:
            assert calls == 0, f"{span} fired {calls} times on the densify path"


def test_emitted_metrics_match_benchmark_json(traced):
    _, tracer, _, _ = traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    # the harness adds the 3D deltas and the traced/untraced frame times
    added = {"densify.dense_cd3d", "refine.cd3d_delta", "refine.hd3d_delta",
             "trace.frame_s", "trace.untraced_frame_s", "trace.overhead_s"}
    assert set(layer_metrics(tracer, 1)) | added == set(LAYER_UNITS)
