"""Exact integer linear algebra for the polyhedral layer.

`dot` serves the facet distances in `polytope.py`, whose facet forms are
closed-form and need no reduction.  `kernel_basis_with_dual` has had no
library caller since that closed form replaced the slice-lattice basis;
it stays because the benchmark's tracer wraps it by name, and the test
oracles build their independent reference basis with it.  The rational
elimination helpers of the double-description hull oracle live with
that oracle in `tests/oracles.py`.
"""

from __future__ import annotations


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


def kernel_basis_with_dual(
    rows: list[list[int]], n: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Basis B of the integer kernel {x in Z^n : rows . x = 0}, with duals.

    Returns (B, D) where D[j] . B[i] = delta_ij and each D[j] is an
    integer vector (a row of the inverse of the unimodular column
    transform), so integer functionals on the kernel lattice extend to
    integer functionals on Z^n.  The kernel of an integer matrix is
    saturated, which is what makes this work.
    """
    a = [list(row) for row in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # columns tracked
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # v = u^{-1}

    def col_sub(j: int, j0: int, q: int) -> None:
        # column_j -= q * column_j0 on A and U; row_j0 += q * row_j on V
        for row in a:
            row[j] -= q * row[j0]
        for row in u:
            row[j] -= q * row[j0]
        v[j0] = [x + q * y for x, y in zip(v[j0], v[j])]

    def col_swap(j: int, j0: int) -> None:
        for row in a:
            row[j], row[j0] = row[j0], row[j]
        for row in u:
            row[j], row[j0] = row[j0], row[j]
        v[j], v[j0] = v[j0], v[j]

    pivot_col = 0
    for i in range(len(a)):
        cols = [j for j in range(pivot_col, n) if a[i][j] != 0]
        while len(cols) > 1:
            j0 = min(cols, key=lambda j: abs(a[i][j]))
            for j in cols:
                if j != j0:
                    q = a[i][j] // a[i][j0]
                    if q:
                        col_sub(j, j0, q)
            cols = [j for j in cols if a[i][j] != 0]
        if cols:
            if cols[0] != pivot_col:
                col_swap(cols[0], pivot_col)
            pivot_col += 1
    basis = [tuple(u[r][j] for r in range(n)) for j in range(pivot_col, n)]
    duals = [tuple(v[j]) for j in range(pivot_col, n)]
    return basis, duals
