"""Arithmetic behind the reported figures, kept free of mmdreg imports."""

import numpy as np


TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(n_samples, candidates=TAIL_CANDIDATES, beyond=10):
    """Highest candidate percentile with at least ``beyond`` samples above it.

    Returns None when even the lowest candidate has too few samples
    beyond it.
    """
    for p in sorted(candidates, reverse=True):
        if n_samples * (1.0 - p / 100.0) >= beyond - 1e-9:
            return p
    return None


def param_error(estimates, truth, mask):
    """Euclidean error over ``mask``, root-mean-squared over replications."""
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    err = est[:, np.asarray(mask, dtype=bool)] - np.asarray(truth, dtype=float)[mask]
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


def scaled_by_reference(durations, refs, nominal):
    """Durations rescaled to a machine on which one reference unit takes
    ``nominal`` seconds.

    ``refs[i]`` and ``refs[i + 1]`` are the reference units timed just
    before and just after ``durations[i]``; their mean is the machine's
    speed during that interval.
    """
    if len(refs) != len(durations) + 1:
        raise ValueError("need one reference time before each duration and one after the last")
    return [d * nominal / ((refs[i] + refs[i + 1]) / 2.0) for i, d in enumerate(durations)]
