"""Seeded inputs for the benchmark workloads, made with numpy only.

A run draws a fresh pool for each pass over a workload, from the seed and the
pass index. Every pool is stratified: the workload fixes the kind, size and
scale decade of each position, and the seed draws the entries inside each
stratum (and, for small_mixed, the order). Pools from different seeds
therefore hold the same mix of fast and slow inputs, which keeps
figures from runs with different seeds comparable.

Kinds:
  contraction   positive diagonal with 2*m_ii > m_ij on every row, so auto
                takes the contraction path;
  bracket       positive diagonal, each row's diagonal a fraction of its
                largest off-diagonal entry, so the certificate fails and auto
                takes the bracket path (with a Newton hand-off on a stall);
  zero_diag     symmetric, zero diagonal, positive off-diagonal entries, so
                auto runs the fixed-point iteration and falls back to Newton.
Scaling a matrix by c scales the solution by 1/sqrt(c).

Every input in the pools converges, so that no operation of a run fails.
Inputs that fail today are kept out of them: bracket ratios stay above
BRACKET_MIN_LOG_RATIO, and known_defects() holds the rest, which a traced run
solves once outside its operations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

# Per-row diagonal over largest off-diagonal entry. Below 0.5 the contraction
# certificate 2*m_ii > m_ij fails; the upper end keeps every row below it.
BRACKET_MAX_LOG_RATIO = float(np.log10(0.45))
# The lowest bracket ratio in the pools, in decades. At n <= 8, inputs with a
# row ratio between about 1e-4 and 10^-2.6 fail at random today; this floor
# keeps the pools clear of that band.
BRACKET_MIN_LOG_RATIO = -2.0
EXTREME_SCALES = (1e300, 1e-300)


@dataclass(frozen=True)
class Item:
    """One input: the unscaled matrix, its scale and, for the CLI, a file format."""

    kind: str
    base: np.ndarray
    scale: float
    fmt: str = ""

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self.base * self.scale


def _off_diagonal(rng, n, low=0.0):
    a = rng.uniform(low, 1.0, (n, n))
    np.fill_diagonal(a, 0.0)
    return a


def contraction(rng, n):
    a = _off_diagonal(rng, n)
    np.fill_diagonal(a, a.max(axis=1) * rng.uniform(0.55, 3.0, n))
    return a


def bracket(rng, n, log_ratio_low, log_ratio_high=BRACKET_MAX_LOG_RATIO):
    """Diagonal-to-off-diagonal ratio drawn per row, log-uniform in the range."""
    a = _off_diagonal(rng, n)
    np.fill_diagonal(a, a.max(axis=1) * 10.0 ** rng.uniform(log_ratio_low, log_ratio_high, n))
    return a


def zero_diag(rng, n):
    a = _off_diagonal(rng, n, low=0.05)
    return 0.5 * (a + a.T)


def _log_scale(rng):
    return float(10.0 ** rng.uniform(-8.0, 8.0))


def _bracket_within(rng, n, lo, hi):
    """Bracket input whose row ratios span half a decade above a floor drawn
    from [lo, hi] (decades)."""
    floor = rng.uniform(lo, hi)
    return bracket(rng, n, floor, min(floor + 0.5, BRACKET_MAX_LOG_RATIO))


def small_mixed(seed: int, pass_index: int = 0) -> list[Item]:
    """273 matrices, n in [2, 8]: 42% contraction, 42% bracket, 15% zero_diag,
    all scaled by 10^U(-8, 8) except 7 contraction or bracket inputs (one per
    n, 3%) scaled by 1e+-300.

    The bracket ratios are stratified over decades, from 1e-2 (hundreds of
    rounds, some Newton hand-offs) up to 0.45 (a few dozen rounds).
    """
    rng = np.random.default_rng([seed, 1, pass_index])
    per_n = 16
    strata = np.linspace(BRACKET_MIN_LOG_RATIO, BRACKET_MAX_LOG_RATIO, per_n + 1)
    items = []
    for n in range(2, 9):
        items += [Item("contraction", contraction(rng, n), _log_scale(rng)) for _ in range(per_n)]
        for k in range(per_n):
            items.append(Item("bracket", _bracket_within(rng, n, strata[k], strata[k + 1]), _log_scale(rng)))
        if n >= 3:
            items += [Item("zero_diag", zero_diag(rng, n), _log_scale(rng)) for _ in range(7)]
        if n % 2:
            items.append(Item("contraction", contraction(rng, n), EXTREME_SCALES[(n // 2) % 2]))
        else:
            extreme = _bracket_within(rng, n, BRACKET_MIN_LOG_RATIO, BRACKET_MAX_LOG_RATIO)
            items.append(Item("bracket", extreme, EXTREME_SCALES[(n // 2) % 2]))
    return [items[i] for i in rng.permutation(len(items))]


# Zero-diagonal sizes for large_dense. Between 64 and 96 their latencies form
# a ladder with steps of about 1.3x around the median of the pool, so that the
# median moves smoothly, not by a whole mode, when the machine's speed shifts.
LARGE_ZERO_DIAG_SIZES = (64, 72, 80, 88, 96, 128)


def large_dense(seed: int, pass_index: int = 0) -> list[Item]:
    """Twelve dense matrices, unscaled: contraction and bracket at n = 100,
    200 and 300, and zero_diag at the sizes in LARGE_ZERO_DIAG_SIZES."""
    rng = np.random.default_rng([seed, 2, pass_index])
    items = []
    for n in (100, 200, 300):
        items.append(Item("contraction", contraction(rng, n), 1.0))
        items.append(Item("bracket", bracket(rng, n, -1.0), 1.0))
    items += [Item("zero_diag", zero_diag(rng, n), 1.0) for n in LARGE_ZERO_DIAG_SIZES]
    return items


def cli_files(seed: int) -> list[Item]:
    """Six small matrices for the traced CLI runs, n = 3..8, alternating CSV
    and JSON files: two each of contraction, bracket (ratios 0.1 to 0.45) and
    zero_diag, all scaled by 10^U(-8, 8)."""
    rng = np.random.default_rng([seed, 3])
    kinds = {"contraction": contraction, "bracket": lambda rng, n: bracket(rng, n, -1.0), "zero_diag": zero_diag}
    items = []
    for k, kind in enumerate(["contraction", "bracket", "zero_diag"] * 2):
        items.append(Item(kind, kinds[kind](rng, 3 + k), _log_scale(rng), ("csv", "json")[k % 2]))
    return items


def known_defects(seed: int) -> list[Item]:
    """Inputs that fail today, kept out of the pools: zero_diag at n = 3..8
    scaled by 1e300 (ZeroRowError) and by 1e-300 (ConvergenceError), and a
    bracket input at n = 300 with ratios down to 1e-2, which exhausts the
    10000-round budget."""
    rng = np.random.default_rng([seed, 5])
    items = [Item("zero_diag", zero_diag(rng, n), c) for n in range(3, 9) for c in EXTREME_SCALES]
    items.append(Item("weak_bracket", bracket(rng, 300, -2.0), 1.0))
    return items


POOLS = {"small_mixed": small_mixed, "large_dense": large_dense}


def matrix_text(item: Item) -> str:
    """The item's scaled matrix as a file in its format, with every float
    written to 17 significant digits so it reads back exactly."""
    m = item.matrix
    if item.fmt == "csv":
        return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in m)
    return json.dumps({"n": item.n, "rows": m.tolist()}) + "\n"


def pool_hash(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(f"{item.kind}|{item.fmt}|{item.scale!r}|{item.n}|".encode())
        h.update(np.ascontiguousarray(item.base).tobytes())
    return h.hexdigest()
