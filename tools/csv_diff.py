"""Compare two valgrad results.csv files, ignoring the wall_ns column.

    python3 tools/csv_diff.py old/results.csv new/results.csv
    python3 tools/csv_diff.py old new

A row's key is every column but ``error`` and ``wall_ns``: (problem, P,
solver, estimator, iteration).  For the keys both files hold, the script
prints, per estimator, the number of rows and of rows whose ``error`` text
differs, then the largest absolute difference and the largest relative
one, |new - old| / |old|, each with its key.  A directory argument, the
output of ``valgrad run``, stands for its results.csv; when both arguments
are directories the script also prints how many of their plots/*.svg it
compared and the name of each whose bytes differ.  It exits 1 if the two
files hold different keys or the two directories different SVG names (and
says how many are only in each), 0 otherwise.
"""

import argparse
import csv
import sys
from pathlib import Path

VALUE, IGNORED = "error", "wall_ns"


def read_rows(path):
    """{key: error text} of one results.csv; the key is the tuple of every
    column but the value and the ignored one, in file order."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        key_cols = [c for c in reader.fieldnames if c not in (VALUE, IGNORED)]
        return key_cols, {tuple(row[c] for c in key_cols): row[VALUE] for row in reader}


def compare(old, new, estimator_col):
    """Per estimator (rows, differing rows), and the largest absolute and
    relative differences as (value, key) pairs, over the keys of both."""
    counts = {}
    largest = {"absolute": (0.0, None), "relative": (0.0, None)}
    for key in old.keys() & new.keys():
        rows = counts.setdefault(key[estimator_col], [0, 0])
        rows[0] += 1
        if old[key] == new[key]:
            continue
        rows[1] += 1
        a, b = float(old[key]), float(new[key])
        diff = abs(b - a)
        rel = diff / abs(a) if a else float("inf")
        for name, value in (("absolute", diff), ("relative", rel)):
            if value > largest[name][0]:
                largest[name] = (value, key)
    return counts, largest


def compare_plots(old_dir, new_dir):
    """(names of the SVGs both plots/ directories hold, of those whose bytes
    differ, of those only in old_dir, of those only in new_dir), each
    sorted."""
    old, new = ({p.name: p for p in (Path(d) / "plots").glob("*.svg")}
                for d in (old_dir, new_dir))
    shared = sorted(old.keys() & new.keys())
    differing = [n for n in shared if old[n].read_bytes() != new[n].read_bytes()]
    return shared, differing, sorted(old.keys() - new.keys()), sorted(new.keys() - old.keys())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    old_path, new_path = Path(args.old), Path(args.new)
    old_cols, old = read_rows(old_path / "results.csv" if old_path.is_dir() else old_path)
    new_cols, new = read_rows(new_path / "results.csv" if new_path.is_dir() else new_path)
    if old_cols != new_cols:
        print(f"key columns differ: {old_cols} vs {new_cols}")
        return 1
    counts, largest = compare(old, new, old_cols.index("estimator"))
    print("estimator rows differing")
    for name in sorted(counts):
        rows, differing = counts[name]
        print(f"{name} {rows} {differing}")
    for name, (value, key) in largest.items():
        where = ",".join(key) if key else "-"
        print(f"largest {name} difference: {value:.3e} at {where}")
    status = 0
    only_old, only_new = len(old.keys() - new.keys()), len(new.keys() - old.keys())
    if only_old or only_new:
        print(f"keys differ: {only_old} only in {args.old}, {only_new} only in {args.new}")
        status = 1
    if old_path.is_dir() and new_path.is_dir():
        shared, differing, only_old, only_new = compare_plots(old_path, new_path)
        print(f"plots compared {len(shared)} differing {len(differing)}")
        for name in differing:
            print(f"plot differs: {name}")
        if only_old or only_new:
            print(f"plots differ: {len(only_old)} only in {args.old}, "
                  f"{len(only_new)} only in {args.new}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
