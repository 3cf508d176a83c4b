"""Workloads, set-up, frames and metrics of the cloudsr benchmark.

A frame is one pass of a ``cloudsr`` subcommand over files the benchmark
generated: ``superres`` (read PLY/PGM/calibration, edges, densify, refine,
write PLY) or ``densify`` (read, densify, write).  The benchmark then reads
the output back, checks it, and evaluates it against the ground truth with
``eval_metrics(out, gt, normalize=True)``.  The program under test sees only
the generated files; the seed only jitters the scene pose.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from cloudsr import cli
from cloudsr.camera import Extrinsics, rig_from_dict
from cloudsr.geometry import bin_downsample
from cloudsr.pixmap import write_pixmap
from cloudsr.ply_io import read_ply, write_ply
from cloudsr.synth import SceneSpec, synth_scene

from tracing import LAYER_UNITS, Tracer, layer_metrics

# Every workload poses its shape the same way; the seed adds at most
# POSE_JITTER_DEG to each rotation angle and POSE_JITTER_M to each
# translation component, which keeps every shape well inside the frame.
POSE_ROT_Y_DEG = 20.0
POSE_ROT_X_DEG = -15.0
POSE_T_M = (0.05, -0.03, 2.0)
POSE_JITTER_DEG = 0.1
POSE_JITTER_M = 0.0005
EXTENT_M = 0.5
RATE = 4

# 640x480 RGB camera at f=800; the depth camera sits 2 cm to the side,
# rolled 3 degrees about its optical axis.
CALIBRATION = {
    "k_rgb": {"fx": 800.0, "fy": 800.0, "cx": 320.0, "cy": 240.0},
    "width": 640,
    "height": 480,
}
TOF_ROLL_DEG = 3.0
TOF_T_M = (0.02, 0.0, 0.0)

# set-up is repeated and its median reported, so that set-up time is steady
SETUP_REPEATS = 5

# A shared virtual machine can change speed by half over minutes (other
# tenants share its cores and memory), and every timing drifts with it.  A
# run times a fixed plain-numpy kernel before every frame, before every
# evaluation and once at the end, and scales all its timings by
# REFERENCE_NOMINAL_S over the kernel's median, which cancels that drift.
REFERENCE_NOMINAL_S = 0.2


@dataclass(frozen=True)
class Workload:
    shape: str
    density: float    # ground-truth samples per square meter
    sparse: int       # points in the sparse input cloud
    superres: bool    # cloudsr superres path, else cloudsr densify


WORKLOADS = {
    "sphere-2k": Workload("sphere", 4e4, 512, True),
    "square-10k": Workload("square-plane", 4e4, 2500, True),
    "box-densify-10k": Workload("box", 2e4, 2500, False),
}

#: end-to-end metrics of an untraced run: name -> unit
END_TO_END_UNITS = {
    "frame_s": "s",
    "eval_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cd3d": "1",
    "hd3d": "1",
    "ok_frac": "1",
}


def _rot(axis: str, deg: float) -> np.ndarray:
    a = np.radians(deg)
    c, s = np.cos(a), np.sin(a)
    if axis == "x":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == "y":
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def calibration() -> dict:
    e_tof = Extrinsics.from_rt(_rot("z", TOF_ROLL_DEG), TOF_T_M)
    return dict(CALIBRATION,
                e_rgb=np.eye(4).ravel().tolist(),
                e_tof=e_tof.matrix.ravel().tolist())


def scene_pose(seed: int) -> Extrinsics:
    """The shared pose, jittered by the workload seed."""
    rng = np.random.default_rng(seed)
    dy, dx = rng.uniform(-POSE_JITTER_DEG, POSE_JITTER_DEG, 2)
    dt = rng.uniform(-POSE_JITTER_M, POSE_JITTER_M, 3)
    rot = _rot("y", POSE_ROT_Y_DEG + dy) @ _rot("x", POSE_ROT_X_DEG + dx)
    return Extrinsics.from_rt(rot, np.array(POSE_T_M) + dt)


@dataclass
class Inputs:
    gt: object            # ground-truth PointCloud3, kept in memory
    sparse: np.ndarray    # the sparse input rows as written
    sparse_path: Path
    image_path: Path
    calib_path: Path


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    """Synthesize the scene, downsample GT to the sparse cloud, and write
    the program's input files."""
    calib = calibration()
    rig = rig_from_dict(calib)
    spec = SceneSpec(wl.shape, scene_pose(seed), EXTENT_M, wl.density)
    gt, img = synth_scene(spec, rig)
    sparse = bin_downsample(gt, wl.sparse)
    inputs = Inputs(gt, sparse.points, work / "sparse.ply",
                    work / "scene.pgm", work / "calib.json")
    write_ply(sparse, inputs.sparse_path, fmt="binary-little-endian")
    write_pixmap(img, inputs.image_path)
    with open(inputs.calib_path, "w", encoding="utf-8") as fh:
        json.dump(calib, fh)
    return inputs


def setup(wl: Workload, seed: int, work: Path, repeats: int):
    """Run set-up `repeats` times; returns (inputs, seconds per repeat)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        inputs = make_inputs(wl, seed, work)
        times.append(time.perf_counter() - t0)
    return inputs, times


def cli_argv(wl: Workload, inputs: Inputs, out: Path) -> list[str]:
    if wl.superres:
        return ["superres", str(inputs.sparse_path), str(inputs.image_path),
                str(inputs.calib_path), str(out), "--rate", str(RATE)]
    return ["densify", str(inputs.sparse_path), str(out), "--rate", str(RATE)]


def check_output(inputs: Inputs, out: np.ndarray, movable) -> str | None:
    """Why the output breaks the pipeline's contract, or None if it holds.

    The input rows lead the output bit for bit, except rows refinement moved:
    it moves hull members only.  `movable` holds every row that was a hull
    member during the frame; None means the frame was not traced, so the
    moved rows cannot be told apart and only the other checks apply.
    """
    n = inputs.sparse.shape[0]
    if out.shape != (RATE * n, 3):
        return f"expected {RATE * n} points, got {out.shape[0]}"
    if not np.all(np.isfinite(out)):
        return "non-finite coordinate"
    if movable is not None:
        moved = np.any(out[:n].view(np.uint64) != inputs.sparse.view(np.uint64), axis=1)
        stray = set(np.nonzero(moved)[0].tolist()) - movable
        if stray:
            return (f"{len(stray)} of the first {n} rows differ from the input "
                    "but were never hull members")
    return None


@dataclass
class Frame:
    seconds: float
    sha256: str | None = None
    out: object = None       # PointCloud3 as read back
    error: str | None = None


def run_frame(wl: Workload, inputs: Inputs, out_path: Path) -> Frame:
    """One timed pass of the CLI subcommand; reads the output back."""
    argv = cli_argv(wl, inputs, out_path)
    if out_path.exists():
        out_path.unlink()
    gc.collect()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed frame, not a crash
        return Frame(time.perf_counter() - t0, error=f"raised {exc!r}")
    seconds = time.perf_counter() - t0
    if code != 0:
        return Frame(seconds, error=f"cloudsr {argv[0]} exited {code}")
    data = out_path.read_bytes()
    return Frame(seconds, hashlib.sha256(data).hexdigest(), read_ply(out_path))


def evaluate(out, gt):
    """Timed eval_metrics, looked up at call time so tracing can wrap it."""
    metrics = importlib.import_module("cloudsr.metrics")
    t0 = time.perf_counter()
    report = metrics.eval_metrics(out, gt, normalize=True)
    return report, time.perf_counter() - t0


def environment() -> dict:
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": threads,
    }


class SpeedReference:
    """A flat nearest-neighbour scan in plain numpy, like the program's own
    hot loops but independent of its code, so a change to the program
    cannot move it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = rng.random((4096, 3))
        self._queries = rng.random((512, 3))
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        d2 = np.zeros((512, 4096))
        for axis in range(3):
            d = self._points[None, :, axis] - self._queries[:, None, axis]
            d2 += d * d
        np.argsort(d2, axis=1, kind="stable")
        self.samples.append(time.perf_counter() - t0)

    @property
    def scale(self) -> float:
        """Factor that maps this run's wall seconds to nominal seconds."""
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


class Run:
    """Frames of one workload until the time budget is spent.

    Every frame must produce the same output bytes; a frame that raises,
    exits non-zero, breaks the output contract or changes the bytes counts
    as failed.
    """

    def __init__(self, wl: Workload, inputs: Inputs, work: Path):
        self.wl = wl
        self.inputs = inputs
        self.out_path = work / "out.ply"
        self.attempted = 0
        self.failures: list[str] = []
        self.sha256: str | None = None
        self.report = None         # EvalReport of the first good frame
        self.frame_s: list[float] = []
        self.eval_s: list[float] = []
        self.reference = SpeedReference()

    def frame(self, tracer: Tracer | None = None) -> Frame:
        self.reference.sample()
        self.attempted += 1
        fr = run_frame(self.wl, self.inputs, self.out_path)
        if fr.error is None:
            if not self.wl.superres:
                movable = set()
            else:
                movable = tracer.hull_members if tracer is not None else None
            fr.error = check_output(self.inputs, fr.out.points, movable)
        if fr.error is None and self.sha256 not in (None, fr.sha256):
            fr.error = f"output sha256 {fr.sha256} differs from {self.sha256}"
        if fr.error is not None:
            self.failures.append(fr.error)
            return fr
        self.sha256 = fr.sha256
        self.reference.sample()
        report, eval_s = evaluate(fr.out, self.inputs.gt)
        if self.report is None:
            self.report = report
        self.eval_s.append(eval_s)
        return fr


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    """Set up, run frames for `seconds`, and return the full result record.

    Every time in `metrics` is in nominal seconds (see SpeedReference);
    `wall` holds the unscaled end-to-end times.
    """
    wl = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    inputs, setup_times = setup(wl, seed, work,
                                1 if trace else SETUP_REPEATS)
    r = Run(wl, inputs, work)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "sparse_points": int(inputs.sparse.shape[0]),
              "gt_points": len(inputs.gt)}
    deadline = time.perf_counter() + seconds
    if trace:
        wall = _traced_frames(r, deadline)
    else:
        wall = _untraced_frames(r, deadline, setup_times)
    r.reference.sample()
    scale = r.reference.scale
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {k: v * scale if units[k] == "s" else v for k, v in wall.items()}
    ok = not r.failures and r.report is not None
    record.update({
        "correct": ok,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "failures": r.failures,
        "output_sha256": r.sha256,
        "frames": len(r.frame_s),
        "reference_s": statistics.median(r.reference.samples),
        "speed_scale": scale,
        "metrics": metrics,
        "wall": {k: v for k, v in wall.items() if units[k] == "s"},
    })
    return record


def _untraced_frames(r: Run, deadline: float, setup_times) -> dict:
    while True:
        fr = r.frame()
        if fr.error is None:
            r.frame_s.append(fr.seconds)
        if time.perf_counter() >= deadline:
            break
    metrics = {"setup_s": statistics.median(setup_times),
               "ok_frac": 1.0 - len(r.failures) / r.attempted}
    if r.report is not None:
        metrics.update({
            "frame_s": statistics.median(r.frame_s),
            "eval_s": statistics.median(r.eval_s),
            "cd3d": r.report.cd,
            "hd3d": r.report.hd,
        })
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def _traced_frames(r: Run, deadline: float) -> dict:
    """Alternate untraced and traced frames; per-layer figures are per
    traced frame, and the overhead is the difference of the two medians."""
    tracer = Tracer()
    plain_s, traced_s = [], r.frame_s
    while True:
        fr = r.frame()
        if fr.error is None:
            plain_s.append(fr.seconds)
        tracer.begin_frame()
        with tracer:
            fr = r.frame(tracer)
        if fr.error is None:
            traced_s.append(fr.seconds)
        if time.perf_counter() >= deadline:
            break
    if not traced_s or not plain_s or r.report is None:
        return {}
    metrics = layer_metrics(tracer, len(traced_s))
    # the refinement's 3D effect: refined output versus the dense cloud
    # refine started from, each against ground truth
    dense, _ = evaluate(tracer.dense, r.inputs.gt)
    metrics.update({
        "densify.dense_cd3d": dense.cd,
        "refine.cd3d_delta": r.report.cd - dense.cd,
        "refine.hd3d_delta": r.report.hd - dense.hd,
        "trace.frame_s": statistics.median(traced_s),
        "trace.untraced_frame_s": statistics.median(plain_s),
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(plain_s),
    })
    return metrics
