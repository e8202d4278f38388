"""A density sweep end to end: run solvers, serialize, read back.

Runs every solver at several subgraph sizes on one graph, writes the
records as CSV and JSON (12-significant-digit floats, fixed column
order, failed cells recorded rather than fatal), then parses the CSV
back and prints a compact table.  The same machinery backs the
``dks sweep`` subcommand.
"""

import argparse
import os
import tempfile

import numpy as np

from dks import read_report, run_sweep, write_report
from dks.verify import random_gnp


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=None,
                        help="keep the report files here (default: temp dir)")
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    g = random_gnp(200, 0.06, rng)
    records = run_sweep(g, 1.0, [5, 10, 20, 40],
                        ["fw", "param", "greedy", "rank1"],
                        dataset="gnp200")

    out_dir = args.out_dir or tempfile.mkdtemp(prefix="dks-sweep-")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    json_path = os.path.join(out_dir, "sweep.json")
    write_report(records, csv_path)
    write_report(records, json_path)
    print(f"wrote {len(records)} records to {csv_path} and {json_path}")

    back = read_report(csv_path)
    print(f"\n{'solver':>8} {'k':>4} {'density':>9} {'objective':>10} "
          f"{'iters':>6} {'bound':>7} {'status':>7}")
    for rec in back:
        print(f"{rec.solver:>8} {rec.k:>4} {rec.normalized_density:>9.4f} "
              f"{rec.objective:>10.1f} {rec.iterations:>6} "
              f"{rec.upper_bound:>7.4f} {rec.status:>7}")


if __name__ == "__main__":
    main()
