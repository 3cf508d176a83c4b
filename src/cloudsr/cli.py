"""Command-line interface.

Subcommands: edges, project, hull, densify, superres, eval, synth.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import sys

import numpy as np

from .camera import Extrinsics, load_rig, project_cloud
from .densify import DensifyConfig, densify
from .edges import CannyParams, canny
from .errors import CloudSRError
from .geometry import COORD_LIMIT, bin_downsample
from .hull import concave_hull
from .losses import LossWeights
from .metrics import eval_metrics
from .pixmap import read_pixmap, write_pixmap
from .ply_io import read_ply, write_ply
from .refine import RefineConfig, superres
from .synth import SceneSpec, synth_scene

_CSV_HEADER = "u,v"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _flag_values():
    """A config rejecting a value given by flag is a usage error (exit 1)."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def write_points_csv(points: np.ndarray, path) -> None:
    lines = [_CSV_HEADER] + ["%.17g,%.17g" % (u, v) for u, v in points]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_points_csv(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise CloudSRError(f"{path}: not an ASCII u,v file: {exc}") from exc
    pts = []
    for lineno, line in enumerate(lines):
        line = line.strip()
        if not line or (lineno == 0 and line == _CSV_HEADER):
            continue
        try:
            u, v = line.split(",")
            pts.append((float(u), float(v)))
        except ValueError as exc:
            raise CloudSRError(
                f"{path}:{lineno + 1}: expected 'u,v', got {line!r}") from exc
    arr = np.array(pts, dtype=np.float64).reshape(-1, 2)
    if not np.all(np.abs(arr) <= COORD_LIMIT):
        raise CloudSRError(
            f"{path}: point coordinates must be finite and within +/-{COORD_LIMIT:g}")
    return arr


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


# every default is read from the config it fills, so each has one source
def _add_canny_flags(p):
    p.add_argument("--sigma", type=float, default=CannyParams.sigma,
                   help="Gaussian sigma in pixels (default %(default)s)")
    p.add_argument("--low", type=float, default=CannyParams.low,
                   help="low threshold fraction of max gradient (default %(default)s)")
    p.add_argument("--high", type=float, default=CannyParams.high,
                   help="high threshold fraction of max gradient (default %(default)s)")


def _add_densify_flags(p):
    p.add_argument("--rate", type=int, default=DensifyConfig.rate,
                   help="upsampling factor r (default %(default)s)")
    p.add_argument("--k-interp", type=int, default=DensifyConfig.k_interp,
                   help="neighbors per point for midpoint interpolation "
                        "(default %(default)s)")


def _add_refine_flags(p):
    p.add_argument("--hull-k", type=int, default=RefineConfig.hull_k,
                   help="concave hull neighbor count (default %(default)s)")
    p.add_argument("--alpha", type=float, default=LossWeights.alpha,
                   help="chamfer weight (default %(default)s)")
    p.add_argument("--beta", type=float, default=LossWeights.beta,
                   help="hausdorff weight (default %(default)s)")
    p.add_argument("--gamma", type=float, default=LossWeights.gamma,
                   help="gradient-smooth weight (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=RefineConfig.max_iters,
                   help="refinement iterations (default %(default)s)")
    p.add_argument("--refresh", type=int, default=RefineConfig.hull_refresh_period,
                   help="hull refresh period in iterations (default %(default)s)")
    p.add_argument("--step", type=float, default=RefineConfig.initial_step,
                   help="initial step as a fraction of cloud half-extent "
                        "(default %(default)s)")
    p.add_argument("--backtrack", type=float, default=RefineConfig.backtrack_factor,
                   help="line search shrink factor (default %(default)s)")
    p.add_argument("--min-step", type=float, default=RefineConfig.min_step,
                   help="step underflow threshold (default %(default)s)")
    p.add_argument("--constant-depth", action="store_true",
                   help="freeze depth coordinates during refinement")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cloudsr",
                     description="Edge-guided point cloud super-resolution")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edges", help="detect edges in a pixmap, write u,v CSV")
    p.add_argument("image")
    p.add_argument("output")
    _add_canny_flags(p)

    p = sub.add_parser("project", help="project a PLY cloud to pixel CSV")
    p.add_argument("cloud")
    p.add_argument("calib")
    p.add_argument("output")

    p = sub.add_parser("hull", help="concave hull of a u,v CSV point set")
    p.add_argument("points")
    p.add_argument("output")
    p.add_argument("--k", type=int,
                   default=inspect.signature(concave_hull).parameters["k"].default,
                   help="starting neighbor count (default %(default)s)")

    p = sub.add_parser("densify", help="midpoint-upsample a PLY cloud")
    p.add_argument("cloud")
    p.add_argument("output")
    _add_densify_flags(p)
    p.add_argument("--target", type=_positive_int, default=None,
                   help="bin-downsample the input to this size first")

    p = sub.add_parser("superres",
                       help="full pipeline: densify then edge-guided refine")
    p.add_argument("cloud")
    p.add_argument("image")
    p.add_argument("calib")
    p.add_argument("output")
    p.add_argument("--trace", default=None,
                   help="write per-iteration JSON lines here")
    p.add_argument("--ply-format", choices=["ascii", "binary-little-endian"],
                   default="binary-little-endian")
    _add_canny_flags(p)
    _add_densify_flags(p)
    _add_refine_flags(p)

    p = sub.add_parser("eval", help="CD/HD metrics between two PLY clouds")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--normalize", action="store_true",
                   help="rescale both clouds by the ground truth's unit transform")

    p = sub.add_parser("synth", help="generate a synthetic scene (PLY + pixmap)")
    p.add_argument("scene", help="scene spec JSON")
    p.add_argument("calib")
    p.add_argument("cloud_out")
    p.add_argument("image_out")

    return parser


def _cmd_edges(args) -> int:
    params = _canny_params(args)
    img = read_pixmap(args.image)
    edge_map = canny(img, params)
    write_points_csv(edge_map, args.output)
    return 0


def _cmd_project(args) -> int:
    cloud = read_ply(args.cloud)
    rig = load_rig(args.calib)
    uv, _ = project_cloud(cloud.points, rig)
    print(f"culled {len(cloud) - len(uv)} of {len(cloud)} points", file=sys.stderr)
    write_points_csv(uv, args.output)
    return 0


def _cmd_hull(args) -> int:
    pts = read_points_csv(args.points)
    with _flag_values():  # concave_hull checks k before it reads the points
        poly = concave_hull(pts, k=args.k)
    write_points_csv(poly.vertices, args.output)
    return 0


def _cmd_densify(args) -> int:
    cfg = _densify_config(args)
    cloud = read_ply(args.cloud)
    if args.target is not None:
        cloud = bin_downsample(cloud, args.target)
    out = densify(cloud, cfg)
    write_ply(out, args.output)
    return 0


def _canny_params(args) -> CannyParams:
    with _flag_values():
        return CannyParams(sigma=args.sigma, low=args.low, high=args.high)


def _densify_config(args) -> DensifyConfig:
    with _flag_values():
        return DensifyConfig(rate=args.rate, k_interp=args.k_interp)


def _refine_config(args) -> RefineConfig:
    with _flag_values():
        return RefineConfig(
            max_iters=args.max_iters,
            hull_refresh_period=args.refresh,
            initial_step=args.step,
            backtrack_factor=args.backtrack,
            min_step=args.min_step,
            weights=LossWeights(args.alpha, args.beta, args.gamma),
            hull_k=args.hull_k,
            constant_depth=args.constant_depth,
        )


def _cmd_superres(args) -> int:
    dcfg, rcfg, ccfg = _densify_config(args), _refine_config(args), _canny_params(args)
    cloud = read_ply(args.cloud)
    img = read_pixmap(args.image)
    rig = load_rig(args.calib)
    if (img.width, img.height) != (rig.width, rig.height):
        raise CloudSRError(
            f"calibration says {rig.width}x{rig.height} pixels "
            f"but the pixmap is {img.width}x{img.height}"
        )
    out, trace = superres(cloud, img, rig, dcfg, rcfg, ccfg)
    write_ply(out, args.output, fmt=args.ply_format)
    if args.trace:
        with open(args.trace, "w", encoding="ascii") as fh:
            fh.write(trace.to_jsonl())
    return 0


def _cmd_eval(args) -> int:
    report = eval_metrics(read_ply(args.pred), read_ply(args.gt),
                          normalize=args.normalize)
    print(report.to_json())
    return 0


def _cmd_synth(args) -> int:
    with open(args.scene, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an integer past the digit limit
            raise CloudSRError(f"scene file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CloudSRError("bad scene spec: expected a JSON object")
    try:
        pose = Extrinsics(np.array(raw.get("pose", np.eye(4).ravel().tolist()),
                                   dtype=np.float64).reshape(4, 4))
        spec = SceneSpec(
            shape=raw["shape"],
            pose=pose,
            extent=float(raw.get("extent", SceneSpec.extent)),
            density=float(raw.get("density", SceneSpec.density)),
            fg=float(raw.get("fg", SceneSpec.fg)),
            bg=float(raw.get("bg", SceneSpec.bg)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CloudSRError(f"bad scene spec: {exc}") from exc
    rig = load_rig(args.calib)
    cloud, img = synth_scene(spec, rig)
    write_ply(cloud, args.cloud_out)
    write_pixmap(img, args.image_out)
    return 0


_COMMANDS = {
    "edges": _cmd_edges,
    "project": _cmd_project,
    "hull": _cmd_hull,
    "densify": _cmd_densify,
    "superres": _cmd_superres,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (CloudSRError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
