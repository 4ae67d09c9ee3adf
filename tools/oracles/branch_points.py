"""Closed-form branch points of the band quartic, against the grid steps
that band_trace pins or finds tied.

    PYTHONPATH=src python tools/oracles/branch_points.py [SEED ...]

In t = 1/s the band quartic Q(s) = 0 reads P(t) = -a4(k), with the fixed
quartic P(t) = t^4 + b3 t^3 + b2 t^2 + b1 t, where b3 = -(tau1 + tau2),
b2 = tau1 tau2 + 2 L C1 + 2 L C2, b1 = -2 L (C1 tau2 + C2 tau1), and the
only k-dependent term a4(k) = A sin^2(k/2), A = 4 L^2 C1 C2.  Over
0 < k < pi, a4 runs from 0 to A, so two roots t collide exactly where -a4
passes a critical value of P: each real root t_c of P'(t) with
-A < P(t_c) < 0 gives one branch point k* = 2 arcsin(sqrt(-P(t_c) / A)),
computed here at 50 digits (mpmath) from the element values as floats.

For each 2-cell point of perfbench's sweep_points(seed) (every element
uniform in [0.05, 2]; seeds 1..10 unless given, 1024 points each) on the
n_k = 256 midpoint grid, the script checks that the first-half grid steps
where the axis-root count changes are exactly the steps that hold one k*,
and that band_trace decides each of them by its branch-point convention
(count 2 <-> 0) or by a tie (the two cheapest slot permutations cost
bitwise the same; count 2 <-> 4).  It then lists each step that holds two
k*, and each other tied step with the number of k* it holds (none: a fast
real root t passes a mirror pair within one step).  Last, it prints the
smallest relative lead of the cheapest permutation over the runner-up on
the remaining steps.  The exit status is 0 when the check holds at every
point.
"""

import sys
from collections import Counter

import mpmath as mp
import numpy as np

from topochain import CircuitParams, spectral

mp.mp.dps = 50
COUNT = 1024
N_K = 256


def branch_points(r1, r2, c1, c2, l):
    """k* in (0, pi) at each real critical point t_c of P, ascending."""
    r1, r2, c1, c2, l = (mp.mpf(x) for x in (r1, r2, c1, c2, l))
    t1, t2 = r1 * c1, r2 * c2
    b3, b2, b1 = -(t1 + t2), t1 * t2 + 2 * l * (c1 + c2), -2 * l * (c1 * t2 + c2 * t1)
    big_a = 4 * l * l * c1 * c2
    out = []
    for z in mp.polyroots([4, 3 * b3, 2 * b2, b1], maxsteps=200, extraprec=100):
        if abs(mp.im(z)) > mp.mpf(10) ** -30 * max(1, abs(z)):
            continue
        t = mp.re(z)
        value = ((t + b3) * t + b2) * t * t + b1 * t
        if -big_a < value < 0:
            out.append(2 * mp.asin(mp.sqrt(-value / big_a)))
    return sorted(out)


def main(seeds):
    ks = spectral.midpoint_grid(N_K)
    h = (N_K + 1) // 2
    failed, ties, outside, checked = [], [], 0, 0
    lead = (np.inf, None)
    for seed in seeds:
        draws = np.random.default_rng(seed).uniform(0.05, 2.0, size=(COUNT, 5))
        for i, row in enumerate(draws.tolist()):
            roots = spectral._solve(CircuitParams(*row, n_cells=2), ks[:h])
            cost, pinned = spectral._step_costs(roots)
            two = np.sort(cost, axis=1)[:, :2]
            tied = two[:, 0] == two[:, 1]
            axis = (roots.real == 0.0).sum(axis=1)
            change = axis[1:] != axis[:-1]
            steps = Counter(int(np.searchsorted(ks[:h], float(k))) - 1
                            for k in branch_points(*row))
            outside += sum(n for j, n in steps.items() if not 0 <= j < h - 1)
            one = {j for j, n in steps.items() if n == 1}
            decided = tied.copy()
            decided[pinned] = True
            if set(np.flatnonzero(change).tolist()) != one or not decided[change].all():
                failed.append((seed, i, np.flatnonzero(change).tolist(), sorted(one)))
            odd = set(np.flatnonzero(tied & ~change).tolist()) | {j for j, n in steps.items() if n > 1}
            ties += [(seed, i, j, axis[j], axis[j + 1], steps[j], bool(tied[j])) for j in sorted(odd)]
            rest = ~(change | tied)
            rest[[j for j in steps if 0 <= j < h - 1]] = False
            if rest.any():
                rel = (two[rest, 1] - two[rest, 0]) / two[rest, 0]
                if rel.min() < lead[0]:
                    lead = (rel.min(), (seed, i, int(np.flatnonzero(rest)[rel.argmin()])))
            checked += 1
    print(f"{checked} points, n_k = {N_K}: the axis-count changes are the one-k* steps, "
          f"each pinned or tied, on {checked - len(failed)}")
    for seed, i, change, one in failed:
        print(f"  {seed}/{i}: axis-count changes {change}, one k* {one}")
    print(f"k* outside the first-half steps: {outside}")
    print("steps holding two k*, and tied steps where the axis count stays "
          "(seed/index: step, axis count, k* held, tied):")
    for seed, i, j, before, after, n, tie in ties:
        print(f"  {seed}/{i}: {j}, {before} -> {after}, {n}, {tie}")
    print(f"smallest runner-up lead elsewhere: {lead[0]:.3g} relative at "
          f"{lead[1][0]}/{lead[1][1]} step {lead[1][2]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or range(1, 11)))
