"""Output checks for the benchmark: each returns (ok, detail).

The result document stores each method's *canonical* widths as `tau` (every
cluster starts at its first event) but `dl` of the binning the method
selected, which places eventless gaps differently. `selected_binning`
rebuilds that binning from `tau` by each method's documented gap rule, so
the stored description length can be re-derived with `total_dl_exact`:

- greedy and uniform_count attach every gap to the cluster on its right;
- uniform_duration cuts T into K near-equal windows;
- exact_dp places each gap where the cost is least. A cluster's cost
  depends on its width only through the concave term log2 C(m+tau-1, m),
  so the total is concave in the gap splits and its minimum lies at a
  corner: each gap goes wholly left or wholly right. A two-state chain
  over the gaps finds it.
"""

from __future__ import annotations

import json

from hyperbin.combinatorics import log2_multiset
from hyperbin.encoding import total_dl_exact
from hyperbin.events import Binning, DiscretizedEvents, canonical_binning, induce_partition

DL_TOL_BITS = 1e-9


def without_runtime(doc: dict) -> str:
    """The document as canonical JSON text with every runtime_seconds removed."""
    doc = json.loads(json.dumps(doc))
    for res in doc.get("results", []):
        res.pop("runtime_seconds", None)
    return json.dumps(doc, sort_keys=True)


def _event_span(d: DiscretizedEvents, tau) -> tuple[list[int], list[int], list[int]]:
    """First and last event step and event count of each cluster of tau."""
    part = induce_partition(d, Binning(tuple(tau)))
    steps = d.step_of_event.tolist()
    firsts, lasts, sizes = [], [], part.sizes.tolist()
    at = 0
    for m in sizes:
        firsts.append(steps[at])
        lasts.append(steps[at + m - 1])
        at += m
    return firsts, lasts, sizes


def _widths_from_starts(starts: list[int], T: int) -> tuple[int, ...]:
    return tuple(b - a for a, b in zip(starts, starts[1:] + [T]))


def _best_gap_corners(firsts, lasts, sizes, T) -> tuple[int, ...]:
    K = len(sizes)
    core = [z - a + 1 for a, z in zip(firsts, lasts)]
    core[0] += firsts[0]  # steps before the first event belong to cluster 0
    core[-1] += T - 1 - lasts[-1]  # trailing steps to the last cluster
    gaps = [firsts[k + 1] - lasts[k] - 1 for k in range(K - 1)]
    # state: does the gap on cluster k's left go to cluster k (1) or not (0)
    cost = {0: 0.0}
    choice: list[dict] = []
    for k in range(K):
        nxt, back = {}, {}
        for left_in, acc in cost.items():
            base = core[k] + (gaps[k - 1] if left_in else 0)
            options = ((0, base + gaps[k]), (1, base)) if k < K - 1 else ((0, base),)
            for right_state, width in options:
                val = acc + log2_multiset(width, sizes[k])
                if right_state not in nxt or val < nxt[right_state]:
                    nxt[right_state], back[right_state] = val, left_in
        cost = nxt
        choice.append(back)
    state = min(cost, key=cost.get)
    goes_right = []
    for k in range(K - 1, 0, -1):
        state = choice[k][state]
        goes_right.append(state)
    goes_right.reverse()
    starts = [0] + [
        lasts[k] + 1 if goes_right[k] else firsts[k + 1] for k in range(K - 1)
    ]
    return _widths_from_starts(starts, T)


def selected_binning(d: DiscretizedEvents, method: str, tau) -> Binning:
    """The binning a method selected, rebuilt from its canonical widths."""
    T, K = d.T, len(tau)
    if method == "uniform_duration":
        base, rem = divmod(T, K)
        return Binning(tuple([base + 1] * rem + [base] * (K - rem)))
    firsts, lasts, sizes = _event_span(d, tau)
    if method in ("greedy", "uniform_count"):
        return Binning(_widths_from_starts([0] + [z + 1 for z in lasts[:-1]], T))
    if method == "exact_dp":
        return Binning(_best_gap_corners(firsts, lasts, sizes, T))
    raise ValueError(f"no gap rule for method {method!r}")


def rederive_dl(d: DiscretizedEvents, res: dict) -> tuple[bool, str]:
    """Stored dl.decoupled equals total_dl_exact of the selected binning,
    and that binning's canonical form is the stored tau."""
    b = selected_binning(d, res["method"], res["tau"])
    dl = total_dl_exact(d, b).decoupled_total
    canon = list(canonical_binning(d, b).widths)
    gap = abs(dl - res["dl"]["decoupled"])
    ok = gap <= DL_TOL_BITS and canon == list(res["tau"])
    return ok, f"{res['method']}: |re-derived - stored| = {gap:.3g} bits, canonical tau {'matches' if canon == list(res['tau']) else 'differs'}"


def canonical_upper_bound(d: DiscretizedEvents, res: dict) -> tuple[bool, str]:
    """The exact optimum is no worse than its own canonical binning."""
    dl_canon = total_dl_exact(d, Binning(tuple(res["tau"]))).decoupled_total
    stored = res["dl"]["decoupled"]
    return stored <= dl_canon + DL_TOL_BITS, f"{stored:.6f} <= DL(tau) {dl_canon:.6f}"
