"""Brute-force searches that more than one test file reads."""

import itertools

import numpy as np


def compositions(n, n_letters):
    """Every count vector over n_letters letters that sums to n, one per
    row: stars and bars, one set of bar positions per vector."""
    rows = []
    for bars in itertools.combinations(range(n + n_letters - 1), n_letters - 1):
        edges = (-1, *bars, n + n_letters - 1)
        rows.append([b - a - 1 for a, b in zip(edges, edges[1:])])
    return np.array(rows, dtype=np.int64)
