"""The byte contract of demos/config.example.yaml, and the script that records it.

    python tests/golden/make.py

runs the eight stages and ``experiment`` of the example config in one
process, in a temporary directory (work_dir ``work`` as in the config),
and writes what they made to tests/golden/example.json, which
tests/test_golden.py compares with a fresh run.  A change that moves an
output byte regenerates the file, so its diff names what moved.

Outputs whose bytes do not hang on a BLAS kernel's last bits are recorded
by sha256: every file but model.npz and recommendations.tsv, plus the walk
corpus array (what walks.txt holds, whatever its file format).  Of those
two, the
(user, rank, item) columns are recorded whole, and the factors, scores
and loss trace, whose last bits depend on the BLAS kernel, by value (a
fixed sample of the factors and scores), compared at 1e-12 relative.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CONFIG = ROOT / "demos" / "config.example.yaml"
GOLDEN = Path(__file__).with_name("example.json")
STAGES = ("ingest", "split", "walk", "pairs", "confidence", "train", "recommend", "evaluate",
          "experiment")
FACTOR_STRIDE, SCORE_STRIDE = 97, 10  # the sampled entries of the factors and scores


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def collect():
    """Run the example config's stages in the current directory and return the
    record example.json holds."""
    import numpy as np

    from walkrec.cli import main
    from walkrec.factorization import load_model
    from walkrec.recommend import load_recommendations
    from walkrec.walks import load_walks

    for stage in STAGES:
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["-c", str(CONFIG), stage]) != 0:
                raise RuntimeError(f"walkrec {stage} failed")
    work = Path("work")
    blas_bound = {"model.npz", "recommendations.tsv"}
    files = sorted(p for p in work.rglob("*") if p.is_file() and p.name not in blas_bound)
    walks = load_walks(work / "walks.txt").walks
    model, _ = load_model(work / "model.npz")
    n_users = len((work / "dataset" / "users.tsv").read_text().splitlines())
    recs = load_recommendations(work / "recommendations.tsv", n_users)
    return {
        "sha256": {**{p.relative_to(work).as_posix(): sha256(p.read_bytes()) for p in files},
                   "walk corpus array": sha256(walks.tobytes())},
        "walk corpus shape": list(walks.shape),
        # user u's items in rank order, one line a user: the (user, rank, item) columns
        "recommended items": [" ".join(map(str, recs[u].item_indices()))
                              for u in range(len(recs))],
        "report.tsv": (work / "report.tsv").read_text().splitlines(),
        "values": {
            "X": model.X.ravel()[::FACTOR_STRIDE].tolist(),
            "Y": model.Y.ravel()[::FACTOR_STRIDE].tolist(),
            "loss_trace": np.asarray(model.loss_trace).tolist(),
            "scores": recs.scores[::SCORE_STRIDE].tolist(),
        },
        "factor shapes": [list(model.X.shape), list(model.Y.shape)],
    }


def main():
    sys.path.insert(0, str(ROOT / "src"))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            record = collect()
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
