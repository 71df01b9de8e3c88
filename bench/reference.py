"""Seed-0 reference artifacts and their ulp distance to a run's artifacts.

``python3 bench/reference.py`` runs every workload once at seed 0 and writes
``bench/reference/<workload>.json`` (config and file digests) plus
``<workload>.npz`` (the numeric cells).  Files longer than ``MAX_ROWS`` keep
every k-th row only, so the comparison of wide snapshots is sampled; the
SHA-256 of every whole file is kept, so any byte change still shows in
``files_changed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import study  # first: pins BLAS threads before numpy loads

import numpy as np

REF_DIR = os.path.join(study.BENCH_DIR, "reference")
MAX_ROWS = 4096


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _numeric(path, stride) -> np.ndarray:
    """Numeric cells of a CSV as float64; empty and text cells are NaN."""
    _, rows = study.read_csv(path)
    rows = rows[::stride]
    return np.array([[v if isinstance(v, float) else np.nan for v in r]
                     for r in rows], dtype=np.float64)


def _ulp_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Largest distance in units in the last place between finite cells."""
    both = np.isfinite(a) & np.isfinite(b)
    ia, ib = a[both].view(np.int64), b[both].view(np.int64)
    # map the sign-magnitude bit patterns onto one monotone integer line
    ia = np.where(ia < 0, np.iinfo(np.int64).min - ia, ia)
    ib = np.where(ib < 0, np.iinfo(np.int64).min - ib, ib)
    diff = ia != ib
    return max((abs(int(x) - int(y)) for x, y in zip(ia[diff], ib[diff])),
               default=0)


class Reference:
    """The recorded artifacts of one workload at seed 0."""

    def __init__(self, workload: str):
        with open(os.path.join(REF_DIR, f"{workload}.json"), encoding="utf-8") as fh:
            self.index = json.load(fh)
        with np.load(os.path.join(REF_DIR, f"{workload}.npz")) as npz:
            self.arrays = {k: npz[k] for k in npz.files}

    def compare(self, inv: study.Invocation, files: dict):
        """(max ulps, files changed) for one invocation, or
        None when its config differs from the recorded one (a seed other
        than 0 perturbed it)."""
        entry = self.index[inv.step.conf]
        if entry["config_sha256"] != inv.config_sha256:
            return None
        max_ulps, changed = 0, 0
        for name, rec in entry["files"].items():
            path = files.get(name)
            if path is None or _sha256(path) != rec["sha256"]:
                changed += 1
            if path is None:
                continue
            cur = _numeric(path, rec["stride"])
            ref = self.arrays[f"{inv.step.conf}/{name}"]
            if cur.shape == ref.shape:
                max_ulps = max(max_ulps, _ulp_distance(cur, ref))
        changed += len(set(files) - set(entry["files"]))
        return max_ulps, changed


def record(workload: str, tmp_root: str):
    """Run ``workload`` once at seed 0 and store its artifacts."""
    index, arrays = {}, {}
    for inv in study.load_workload(workload, 0):
        with tempfile.TemporaryDirectory(dir=tmp_root) as out:
            outcome = study.run_invocation(inv, out)
            if not outcome.ok:
                raise SystemExit(f"{workload}/{inv.step.conf}: {outcome.error}")
            files = {}
            for name, path in outcome.files.items():
                _, rows = study.read_csv(path)
                stride = -(-len(rows) // MAX_ROWS)
                files[name] = {"sha256": _sha256(path), "stride": stride}
                arrays[f"{inv.step.conf}/{name}"] = _numeric(path, stride)
        index[inv.step.conf] = {"config_sha256": inv.config_sha256,
                                "files": files}
    os.makedirs(REF_DIR, exist_ok=True)
    with open(os.path.join(REF_DIR, f"{workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(os.path.join(REF_DIR, f"{workload}.npz"), **arrays)


if __name__ == "__main__":
    tmp_root = os.path.join(study.ROOT, ".bench_runs")
    os.makedirs(tmp_root, exist_ok=True)
    for name in sys.argv[1:] or study.WORKLOADS:
        record(name, tmp_root)
        print(f"recorded {name}")
