"""Write the seed-0 references that the benchmark's checks compare against.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right: the checks
accept any later output within tolerance of what this writes.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as W


def main():
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=W.HERE))
    try:
        size = W.FULL["grid"]
        rc, _, out = W.grid_pass(W.grid_build(0, size, workdir))
        if rc != 0:
            raise SystemExit("the seed-0 grid aborted a cell")
        rows = W.read_grid_csv(out / "results.csv")
        csv_sha, svg_sha = W.grid_digest(out)
        errors = np.array([rows[k] for k in sorted(W.grid_keys(size))])
        np.savez_compressed(W.GRID_REFERENCE, errors=errors,
                            csv_sha256=np.array(csv_sha), svg_sha256=np.array(svg_sha))

        inputs = W.sensitivity_build(0, W.FULL["sensitivity"], workdir)
        finals = W.sensitivity_pass(inputs)
        arrays = {}
        for (which, method), got in finals.items():
            if isinstance(got, Exception):
                raise SystemExit(f"f{which} {method} raised {got!r}")
            for est in ("ang", "aug", "ig", "dg"):
                arrays[f"f{which}_{method}_{est}"] = got[est]
        np.savez_compressed(W.SENSITIVITY_REFERENCE, **arrays)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
