"""Benchmark tables: recomputed cells and embedded expected values.

Each table fixes a database size n and entry probability p and reports, per
row (a subquery count m) and per epsilon column: the accuracy loss sigma of
answering from blocks of size n/m, the composed statistical-privacy delta,
and the number of Gaussian-noise DP queries reaching the same accuracy under
the same (epsilon, delta). Expected values carry 4-decimal precision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .baseline import _max_dp_queries_of, mse_increase
from .errors import DomainError
from .spc import IidEntries, Scenario, spc_iid

DELTA_TOL = 5e-4
SIGMA_TOL = 1e-4


@dataclass(frozen=True)
class RowExpectation:
    m: int
    sigma: float
    deltas: tuple[float, ...]
    dp_queries: tuple[int, ...]


@dataclass(frozen=True)
class TableSpec:
    name: str
    n: int
    p: float
    epsilons: tuple[float, ...]
    rows: tuple[RowExpectation, ...]
    cell_notes: dict | None = None  # (m, epsilon) -> note about the recorded value

    def note_for(self, m: int, epsilon: float) -> str | None:
        if not self.cell_notes:
            return None
        return self.cell_notes.get((m, epsilon))


TABLE1 = TableSpec(
    name="table1",
    n=32768,
    p=0.5,
    epsilons=(0.005, 0.01, 0.02),
    rows=(
        RowExpectation(32, 0.0153, (0.0225, 0.0203, 0.0163), (0, 3, 9)),
        RowExpectation(64, 0.0219, (0.0329, 0.0306, 0.0264), (1, 6, 20)),
        RowExpectation(128, 0.0311, (0.0475, 0.0452, 0.0409), (3, 12, 44)),
        RowExpectation(256, 0.0441, (0.0682, 0.0660, 0.0617), (6, 25, 93)),
        RowExpectation(512, 0.0624, (0.0973, 0.0953, 0.0912), (12, 50, 194)),
    ),
)

TABLE2 = TableSpec(
    name="table2",
    n=1024,
    p=0.5,
    epsilons=(0.05, 0.1, 0.2),
    rows=(
        RowExpectation(32, 0.0869, (0.1214, 0.1020, 0.0711), (2, 7, 23)),
        RowExpectation(64, 0.1240, (0.1808, 0.1644, 0.1291), (4, 16, 55)),
        RowExpectation(128, 0.1760, (0.2618, 0.2496, 0.2232), (9, 35, 126)),
    ),
    cell_notes={(32, 0.2): "expected value read from malformed source cell '.0.0711'"},
)

TABLES = {t.name: t for t in (TABLE1, TABLE2)}


@dataclass(frozen=True)
class TableCell:
    m: int
    sigma: float
    epsilon: float
    delta_sp: float
    dp_queries: int | None
    expected_sigma: float
    expected_delta: float
    expected_dp: int
    note: str | None = None

    @property
    def sigma_ok(self) -> bool:
        return abs(self.sigma - self.expected_sigma) <= SIGMA_TOL

    @property
    def delta_ok(self) -> bool:
        return abs(self.delta_sp - self.expected_delta) <= DELTA_TOL

    @property
    def dp_ok(self) -> bool:
        # best-effort tolerance: within max(2 queries, 50%)
        if self.dp_queries is None:
            return True
        slack = max(2.0, 0.5 * self.expected_dp)
        return abs(self.dp_queries - self.expected_dp) <= slack


def compute_table(spec: TableSpec, with_dp: bool = True) -> list[TableCell]:
    """Recompute every cell of a table (delta and sigma always, #DP optionally,
    from one batched search over the table's cells)."""
    cells = []
    for row in spec.rows:
        if spec.n % row.m != 0:
            raise DomainError(f"n={spec.n} is not divisible by m={row.m}")
        size = spec.n // row.m
        sigma = mse_increase(spec.n, size, spec.p).sigma_increase
        # nonadaptive_iid on m equal blocks of one query: its total is the
        # fsum of m equal terms fl(fl(size / n) * delta), which is fl(m * term)
        block = spc_iid(Scenario(spec.n, IidEntries((spec.p,))), size, spec.epsilons)
        deltas = np.minimum(1.0, np.maximum(0.0, row.m * (size / spec.n * block))).tolist()
        for eps, delta, exp_delta, exp_dp in zip(spec.epsilons, deltas, row.deltas, row.dp_queries):
            cells.append(TableCell(
                m=row.m, sigma=sigma, epsilon=eps, delta_sp=delta, dp_queries=None,
                expected_sigma=row.sigma, expected_delta=exp_delta, expected_dp=exp_dp,
                note=spec.note_for(row.m, eps),
            ))
    if not with_dp:
        return cells
    dp = _max_dp_queries_of([(c.epsilon, c.delta_sp, c.sigma, spec.n) for c in cells])
    return [replace(c, dp_queries=cal.k_max) for c, cal in zip(cells, dp)]


def check_table(cells: list[TableCell]) -> list[str]:
    """Human-readable failure list; empty means the check passed.

    #DP deviations do not gate the check; the CLI reports them.
    """
    failures = []
    for c in cells:
        if not c.sigma_ok:
            failures.append(
                f"m={c.m} eps={c.epsilon}: sigma {c.sigma:.6f} vs expected "
                f"{c.expected_sigma:.4f} (tol {SIGMA_TOL})"
            )
        if not c.delta_ok:
            failures.append(
                f"m={c.m} eps={c.epsilon}: delta {c.delta_sp:.6f} vs expected "
                f"{c.expected_delta:.4f} (tol {DELTA_TOL})"
            )
    return failures
