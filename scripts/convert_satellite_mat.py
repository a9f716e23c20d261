#!/usr/bin/env python3
"""Convert the ODDS satellite .mat file to the CSV layout this package reads.

The ODDS distribution ships X (6435 x 36) and binary y (1 = outlier). The
emitted CSV has feature columns f0..f35 and the class column,
``rpo.data.LABEL_COLUMN``, with 0 for inliers and -1 for outliers, as
configs/satellite.yaml reads it: a negative class id is never a normal
class, so no class pick can name the outliers. Each value is written as
its repr, by ``rpo.data.write_numbers``, so the package must be installed
(``pip install -e .``) or on ``PYTHONPATH``.

Usage: python scripts/convert_satellite_mat.py satellite.mat data/satellite.csv
"""

import argparse
import os
import sys

import numpy as np

from rpo.data import LABEL_COLUMN, write_numbers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mat_path")
    parser.add_argument("csv_path")
    args = parser.parse_args(argv)

    try:
        from scipy.io import loadmat
    except ImportError:
        print("scipy is required for .mat conversion (pip install scipy)", file=sys.stderr)
        return 1

    payload = loadmat(args.mat_path)
    X, y = np.asarray(payload["X"], dtype=float), payload["y"].ravel().astype(int)
    os.makedirs(os.path.dirname(os.path.abspath(args.csv_path)), exist_ok=True)
    header = [f"f{i}" for i in range(X.shape[1])] + [LABEL_COLUMN]
    write_numbers(args.csv_path, header, [*X.T, -y])  # outliers (y = 1) are class -1
    print(f"wrote {args.csv_path}: {X.shape[0]} rows, {X.shape[1]} features, "
          f"{int(y.sum())} outliers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
