"""Source mutations that the named tests must kill.

    python tests/mutants.py            # run every mutation
    python tests/mutants.py --check    # only check that each still applies

Run from the root of a checkout.  Each entry is (file, old text, new text,
the test expected to fail).  A run copies ``src/``, ``tests/`` and
``pytest.ini`` to a temporary directory once per mutation, replaces the old
text with the new there, and runs only the named test against the mutated
copy.  A mutation the test still passes is a survivor: some wrong rule at
that margin goes unnoticed.  Each named test first runs once on an
unmutated copy; an entry whose test fails there is stale, not killed.  The
exit status is 1 when a mutation survives or an entry is stale.

``--check`` runs no test: it fails when an entry's old text does not occur
exactly once in its file, its mutated file does not compile, or its test
function is not defined.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GEOMETRY = "src/cloudsr/geometry.py"
TEST_GEOMETRY = "tests/test_geometry.py"
TEST_LOSSES = "tests/test_losses.py"

MUTANTS = [
    # the pads that keep the k-d tree's rounding out of every settle test
    (GEOMETRY, "return x * (1 + 1e-12) + _TINY", "return x + _TINY",
     TEST_LOSSES + "::test_settle_rule_leaves_a_row_at_its_limit_open"),
    (GEOMETRY, "return x * (1 - 1e-12) - _TINY", "return x - _TINY",
     TEST_GEOMETRY + "::test_nearest_settles_only_below_the_padded_last_candidate"),
    (GEOMETRY, "np.sqrt(np.maximum(_pad_down(bound2), 0.0))", "np.sqrt(np.maximum(bound2, 0.0))",
     TEST_LOSSES + "::test_settle_rule_leaves_a_row_at_its_limit_open"),
    # the settle comparisons are strict
    (GEOMETRY, "reach < limit", "reach <= limit",
     TEST_LOSSES + "::test_settle_rule_leaves_a_row_at_its_limit_open"),
    (GEOMETRY, "(d2[:, k - 1] < _pad_down(d2[:, -1]))", "(d2[:, k - 1] <= _pad_down(d2[:, -1]))",
     TEST_GEOMETRY + "::test_nearest_settles_only_below_the_padded_last_candidate"),
    # `_rank_rows` re-sorts a row where a distance holds while its index falls
    (GEOMETRY, "(d2[:, 1:] <= d2[:, :-1]).any(axis=1)", "(d2[:, 1:] < d2[:, :-1]).any(axis=1)",
     TEST_GEOMETRY + "::test_rank_resorts_the_rows_the_tree_returned_out_of_order"),
    (GEOMETRY, "| ((db[:, 1:] == db[:, :-1]) & (cb[:, 1:] < cb[:, :-1]))", "",
     TEST_GEOMETRY + "::test_rank_resorts_the_rows_the_tree_returned_out_of_order"),
    # `DEDUPE_TOL`: on an edge within it, and a kink below it
    ("src/cloudsr/hull.py", "d2 <= DEDUPE_TOL * DEDUPE_TOL", "d2 < DEDUPE_TOL * DEDUPE_TOL",
     "tests/test_hull.py::test_contains_all_counts_a_point_at_the_on_edge_tolerance"),
    ("src/cloudsr/hull.py", "pad = 2.0 * DEDUPE_TOL + ", "pad = DEDUPE_TOL + ",
     "tests/test_hull.py::test_contains_all_matches_scalar_oracle"),
    ("src/cloudsr/losses.py", "where=norms > DEDUPE_TOL", "where=norms >= DEDUPE_TOL",
     TEST_LOSSES + "::test_gs_gradient_matches_scatter_add_oracle"),
    # `_cell_keys` folds fewer than 2^63 cells, never 2^63
    (GEOMETRY, "math.prod(spans[:lead + 1]) < _FOLD_CELLS",
     "math.prod(spans[:lead + 1]) <= _FOLD_CELLS",
     TEST_GEOMETRY + "::test_fold_switches_to_lexsort_at_two_to_the_63"),
    # `_distinct` takes the bitmap at exactly `_BITMAP_CELLS_PER_KEY` cells per key
    (GEOMETRY, "if cells <= _BITMAP_CELLS_PER_KEY * keys.size:",
     "if cells < _BITMAP_CELLS_PER_KEY * keys.size:",
     TEST_GEOMETRY + "::test_distinct_takes_the_bitmap_up_to_its_cells_per_key"),
    # the ASCII writer's fixed-notation range [1e-4, 1e17)
    ("src/cloudsr/ply_io.py", "fixed = (mag >= 1e-4) & (mag < 1e17)",
     "fixed = (mag > 1e-4) & (mag < 1e17)",
     "tests/test_io.py::test_ply_ascii_writes_fixed_values_by_array_arithmetic"),
    ("src/cloudsr/ply_io.py", "fixed = (mag >= 1e-4) & (mag < 1e17)",
     "fixed = (mag >= 1e-4) & (mag <= 1e17)",
     "tests/test_io.py::test_ply_ascii_bytes_match_numpy_scalar_formatting"),
    # `nearest_candidate` derives each row's start from `cand.shape`
    (GEOMETRY, "np.arange(cand.shape[0]) * cand.shape[1]",
     "np.arange(cand.shape[0]) * cand.shape[0]",
     TEST_LOSSES + "::test_match_table_matches_flat_scan_oracle"),
    # a `MatchTable` answers its full queries from its own edge index
    ("src/cloudsr/losses.py", "self.edges.nearest_batch(p[~ok])",
     "SpatialIndex(r[::-1]).nearest_batch(p[~ok])",
     TEST_LOSSES + "::test_match_table_matches_flat_scan_oracle"),
    # the line search tries every step down to `min_step`, that one included
    ("src/cloudsr/refine.py", "while step >= cfg.min_step:", "while step > cfg.min_step:",
     "tests/test_refine.py::test_min_step_may_not_exceed_initial_step"),
    # a window ends after every `hull_refresh_period` iterations
    ("src/cloudsr/refine.py", "(it - 1) % cfg.hull_refresh_period == 0",
     "it % cfg.hull_refresh_period == 0",
     "tests/test_refine.py::test_each_refresh_is_warmed_with_the_previous_members"),
    # edge->hull wins a tie between the directed Hausdorff maxima
    ("src/cloudsr/losses.py", "if d_e2h >= d_h2e else", "if d_e2h > d_h2e else",
     TEST_LOSSES + "::test_hausdorff_tie_takes_the_edge_to_hull_maximum"),
    # canny cuts exactly `band` rows and columns off each side
    ("src/cloudsr/edges.py", "edges[band:-band, band:-band]", "edges[band + 1:-band, band:-band]",
     "tests/test_edges.py::test_canny_matches_dense_suppression"),
    # a clockwise hull is reversed after its first row, which stays first
    ("src/cloudsr/hull.py", "[order[0]] + order[1:][::-1]", "order[::-1]",
     "tests/test_hull.py::test_lattice_walk_tie_order"),
]


def problems() -> list[str]:
    """Why each entry no longer applies to the sources."""
    out = []
    for path, old, new, test in MUTANTS:
        text = (ROOT / path).read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            out.append(f"{path}: {old!r} occurs {count} times, not once")
        try:
            compile(text.replace(old, new), path, "exec")
        except SyntaxError as exc:
            out.append(f"{path}: {old!r} -> {new!r} does not compile: {exc.msg}")
        test_path, _, name = test.partition("::")
        if f"def {name}(" not in (ROOT / test_path).read_text(encoding="utf-8"):
            out.append(f"{test_path}: no test {name}")
    return out


def passes(test: str, path: str = "", old: str = "", new: str = "") -> bool:
    """Whether `test` passes in a copy of the tree, with `old` replaced by
    `new` in `path` when a path is given."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy(ROOT / "pytest.ini", work / "pytest.ini")
        if path:
            target = work / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                              encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              test], cwd=work, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        return run.returncode == 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="only check that every mutation applies; run no test")
    args = p.parse_args(argv)
    found = problems()
    for line in found:
        print(f"stale: {line}")
    if args.check or found:
        return 1 if found else 0
    # a test that fails unmutated would count every mutation as killed
    clean = {test: passes(test) for test in dict.fromkeys(t for *_, t in MUTANTS)}
    survivors = stale = 0
    for path, old, new, test in MUTANTS:
        if not clean[test]:
            stale += 1
            verdict = "stale   "
        elif passes(test, path, old, new):
            survivors += 1
            verdict = "SURVIVED"
        else:
            verdict = "killed  "
        print(f"{verdict}  {path}: {old!r} -> {new!r}  [{test}]", flush=True)
    print(f"{len(MUTANTS) - survivors - stale} of {len(MUTANTS)} mutations killed, "
          f"{stale} stale (the test fails unmutated)")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
