"""Self-contained convex quadratic programming.

Solves

    min  1/2 x'Qx + c'x
    s.t. A x  = b
         G x <= h
         lb <= x <= ub

with Q symmetric positive semidefinite, via an infeasible-start
primal-dual interior point method (Mehrotra predictor-corrector).
Linear programs are the Q = 0 special case.  The KKT systems are
factored with LAPACK's dense LU.  A program may declare ``blocks``,
column ranges whose variables couple only to themselves and to the
linking columns outside every block (approach I's per-vertex actions
are such blocks); each block is then eliminated by its own LU and the
linking variables are solved from the Schur complement.  The products
``G'WG`` in those matrices are formed from the sparse rows of G by row
shape: bound rows add to the diagonal, short rows scatter their few
entries, and the long rows of each column support form a dense product
over those columns only.

``VariableLayout`` names the variable blocks of a program and builds
its constraint rows over them.  ``min_violation`` is the elastic LP
behind the diagnoses: it finds which groups of rows (for instance the
rows of one line) an infeasible program cannot satisfy.

Infeasibility is detected, then certified.  The main IPM stops as
soon as its dual iterates (y, z >= 0) lie along a Farkas ray, to
FARKAS_EPS relative to ||(y, z)|| (inf-norms): ||A'y + G'z|| <=
FARKAS_EPS ||(y, z)|| and b'y + h'z <= -FARKAS_EPS ||(y, z)||.  Such a
ray proves that no x meets the constraints, and the dual iterates of
an infeasible-start IPM diverge along one when none does.  Every main
solve that ends neither optimal nor unbounded, at that stop or at the
iteration limit, is then certified by a phase-1 relaxation: minimize
the uniform constraint violation t subject to Gx <= h + t; the problem
is declared infeasible only when the optimal t exceeds PHASE1_TOL
(constraint rows are normalized to unit inf-norm, so t is a scaled
violation).  The ``iterations`` of an INFEASIBLE solution count the
main IPM's iterations up to its stop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PHASE1_TOL = 1e-7
# Convergence tolerance and iteration limit of every solve.
TOL = 1e-9
MAX_ITER = 100
# Relative tolerance of the Farkas-ray stop of the main IPM.
FARKAS_EPS = 1e-6
_REG = 1e-11
_HUGE = 1e13
# Q is checked for positive semidefiniteness by its eigenvalues only in
# programs with at most this many variables.
DENSE_MAX_N = 400
# Adding a product back into the Gram costs about as much as multiplying
# this many rows over its columns (single-threaded OpenBLAS, 63-315
# columns), so long rows whose column support has fewer rows share one
# product instead.
_GROUP_ROWS = 64


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical-failure"


class VariableLayout:
    """Named contiguous variable blocks for assembling programs.

    Keeps column offsets in one place so constraint builders cannot
    disagree about where a block lives, and builds constraint rows over
    those blocks.  Each block declares its own linear cost, diagonal
    quadratic weight and bounds; ``program`` assembles them.
    """

    def __init__(self):
        self._slices: dict[str, slice] = {}
        self._size = 0
        self._columns: list[tuple[np.ndarray, ...]] = []

    def add(self, name: str, size: int, cost=0.0, quad=0.0, lb=0.0, ub=np.inf) -> slice:
        """Append a block of ``size`` variables; its linear ``cost``, ``quad``
        (diagonal of Q) and bounds are scalars or one value per variable."""
        if name in self._slices:
            raise ValueError(f"duplicate variable block {name!r}")
        s = slice(self._size, self._size + size)
        self._slices[name] = s
        self._size += size
        self._columns.append(tuple(np.broadcast_to(np.asarray(v, dtype=float), size)
                                   for v in (cost, quad, lb, ub)))
        return s

    def program(self, **constraints) -> ConvexProgram:
        """The program over the blocks' costs and bounds with the given
        constraint fields; ``q`` is None when every weight is zero."""
        c, quad, lb, ub = (np.concatenate(col) for col in zip(*self._columns))
        return ConvexProgram(c=c, q=sp.diags(quad) if quad.any() else None, lb=lb, ub=ub,
                             **constraints)

    def rows(self, *terms) -> sp.csr_matrix:
        """CSR rows from ``(block slice, matrix)`` terms over disjoint blocks.

        Each matrix fills its block's columns (a 1-D array is one row, a
        scalar one row of one column); the other columns are zero.  Exact
        zeros, -0.0 included, are not stored.
        """
        mats = [np.atleast_2d(np.asarray(m, dtype=float)) for _, m in terms]
        n_rows = mats[0].shape[0]
        r_parts, c_parts, v_parts = [], [], []
        for (sl, _), m in zip(terms, mats):
            if m.shape != (n_rows, sl.stop - sl.start):
                raise ValueError(f"term shape {m.shape} does not fit {n_rows} rows over {sl}")
            r, c = np.nonzero(m)
            r_parts.append(r)
            c_parts.append(c + sl.start)
            v_parts.append(m[r, c])
        return sp.coo_matrix(
            (np.concatenate(v_parts), (np.concatenate(r_parts), np.concatenate(c_parts))),
            shape=(n_rows, self._size)).tocsr()

    def band(self, terms, offset: np.ndarray, limit: np.ndarray):
        """Rows and rhs of ``|offset + sum M x| <= limit`` over ``terms``:
        ``[G, -G] x <= [limit - offset, limit + offset]``."""
        g = self.rows(*terms)
        return sp.vstack([g, -g], format="csr"), np.concatenate([limit - offset, limit + offset])


def stack(blocks) -> tuple[sp.csr_matrix, np.ndarray]:
    """One inequality matrix and rhs from ``(rows, rhs)`` blocks, in order."""
    mats, rhs = zip(*blocks)
    return sp.vstack(mats, format="csr"), np.concatenate(rhs)


@dataclass(frozen=True)
class ConvexProgram:
    """Data of one convex QP/LP in the standard form documented above.

    Matrices may be dense ndarrays or scipy sparse; ``q`` and the
    constraint blocks may be None when absent.  Bounds default to free.
    Every entry must be finite, except ``lb = -inf`` and ``ub = +inf``.
    ``blocks`` are disjoint column ranges: no constraint row and no entry
    of ``q`` may touch two of them.  Columns outside every block link
    the blocks.  They change how the program is factored, not its solution.
    """

    c: np.ndarray
    q: object = None
    a_eq: object = None
    b_eq: np.ndarray | None = None
    g_ineq: object = None
    h_ineq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    blocks: tuple[slice, ...] = ()

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        _require_finite("c", c)
        object.__setattr__(self, "c", c)
        n = c.size
        if self.q is not None:
            q = sp.csr_matrix(self.q)
            _require_finite("q", q.data)
            if q.shape != (n, n):
                raise ValueError(f"q must be {n}x{n}, got {q.shape}")
            asym = abs(q - q.T)
            if asym.nnz and asym.max() > 1e-8 * max(1.0, abs(q).max()):
                raise ValueError("q must be symmetric")
            if n <= DENSE_MAX_N:
                w = np.linalg.eigvalsh(q.toarray())
                if w.min() < -1e-8 * max(1.0, w.max(), 1.0):
                    raise ValueError("q must be positive semidefinite")
            object.__setattr__(self, "q", q)
        for mat, vec, mname in (("a_eq", "b_eq", "equality"), ("g_ineq", "h_ineq", "inequality")):
            m = getattr(self, mat)
            v = getattr(self, vec)
            if (m is None) != (v is None):
                raise ValueError(f"{mname} matrix and rhs must be given together")
            if m is not None:
                ms = sp.csr_matrix(m)
                vv = np.asarray(v, dtype=float).ravel()
                if ms.shape != (vv.size, n):
                    raise ValueError(f"{mname} block shape mismatch: {ms.shape} vs rhs {vv.size}, n={n}")
                _require_finite(mat, ms.data)
                _require_finite(vec, vv)
                object.__setattr__(self, mat, ms)
                object.__setattr__(self, vec, vv)
        for bname, free in (("lb", -np.inf), ("ub", np.inf)):
            bv = getattr(self, bname)
            if bv is not None:
                bv = np.asarray(bv, dtype=float).ravel()
                if bv.size != n:
                    raise ValueError(f"{bname} must have length {n}")
                _require_finite(bname, bv, free)
                object.__setattr__(self, bname, bv)
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if blocks:
            label = _block_labels(blocks, n)
            for name in ("a_eq", "g_ineq"):
                m = getattr(self, name)
                if m is not None and _row_blocks(m, label)[1]:
                    raise ValueError(f"a row of {name} couples two blocks")
            if self.q is not None:
                q = self.q.tocoo()
                lr, lc = label[q.row], label[q.col]
                if np.any((lr >= 0) & (lc >= 0) & (lr != lc)):
                    raise ValueError("an entry of q couples two blocks")

    @property
    def n(self) -> int:
        return self.c.size


def _require_finite(name: str, values: np.ndarray, free: float | None = None):
    """Raise unless every entry of ``values`` is finite or equals ``free``."""
    bad = ~np.isfinite(values)
    if bad.any() and (free is None or np.any(values[bad] != free)):
        raise ValueError(f"{name} must be finite" + ("" if free is None else f" or {free}"))


@dataclass(frozen=True)
class Solution:
    status: SolveStatus
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


def solve(program: ConvexProgram) -> Solution:
    """Solve a convex program; statuses are reported, never silent garbage."""
    n = program.n
    q = program.q if program.q is not None else sp.csr_matrix((n, n))
    c = program.c

    a_parts, b_parts = [], []
    if program.a_eq is not None:
        a_parts.append(sp.csr_matrix(program.a_eq))
        b_parts.append(program.b_eq)
    g_parts, h_parts = [], []
    if program.g_ineq is not None:
        g_parts.append(sp.csr_matrix(program.g_ineq))
        h_parts.append(program.h_ineq)

    # Bounds become inequality rows; an equal pair lb == ub becomes an
    # equality row so the interior stays nonempty.
    lb = program.lb if program.lb is not None else np.full(n, -np.inf)
    ub = program.ub if program.ub is not None else np.full(n, np.inf)
    fixed = np.isfinite(lb) & np.isfinite(ub) & (lb == ub)
    if fixed.any():
        idx = np.flatnonzero(fixed)
        rows = sp.csr_matrix((np.ones(idx.size), (np.arange(idx.size), idx)), shape=(idx.size, n))
        a_parts.append(rows)
        b_parts.append(lb[idx])
    up = np.flatnonzero(np.isfinite(ub) & ~fixed)
    if up.size:
        g_parts.append(sp.csr_matrix((np.ones(up.size), (np.arange(up.size), up)), shape=(up.size, n)))
        h_parts.append(ub[up])
    lo = np.flatnonzero(np.isfinite(lb) & ~fixed)
    if lo.size:
        g_parts.append(sp.csr_matrix((-np.ones(lo.size), (np.arange(lo.size), lo)), shape=(lo.size, n)))
        h_parts.append(-lb[lo])

    a = sp.vstack(a_parts, format="csr") if a_parts else sp.csr_matrix((0, n))
    b = np.concatenate(b_parts) if b_parts else np.zeros(0)
    g = sp.vstack(g_parts, format="csr") if g_parts else sp.csr_matrix((0, n))
    h = np.concatenate(h_parts) if h_parts else np.zeros(0)

    # Row equilibration keeps residual tolerances meaningful across blocks.
    g, h = _scale_rows(g, h)
    a, b = _scale_rows(a, b)

    if a.shape[0]:
        x_eq, eq_ok = _least_squares(a, b)
        if not eq_ok:
            return Solution(SolveStatus.INFEASIBLE)
    else:
        x_eq = np.zeros(n)

    if g.shape[0] == 0:
        return _solve_equality_qp(q, c, a, b, x_eq)

    blocks = program.blocks
    res = _ipm(q, c, a, b, g, h, x_eq, tol=TOL, max_iter=MAX_ITER, blocks=blocks, farkas=True)
    if res.status is SolveStatus.OPTIMAL or res.status is SolveStatus.UNBOUNDED:
        return _finalize(res, program)

    # Main solve did not converge: certify feasibility before blaming numerics.
    t_star = _phase1(a, b, g, h, x_eq, max_iter=MAX_ITER, blocks=blocks)
    if t_star is None:
        return Solution(SolveStatus.NUMERICAL_FAILURE, iterations=res.iterations)
    if t_star > PHASE1_TOL:
        return Solution(SolveStatus.INFEASIBLE, iterations=res.iterations)
    if _has_unbounded_ray(q, c, a, g, blocks):
        return Solution(SolveStatus.UNBOUNDED, iterations=res.iterations)
    # The retry regularizes harder (reg = 1e-9) and also shifts every KKT
    # diagonal by a multiple of the matrix's own scale: barrier weights near
    # their cap (1e14) can make it exactly singular, and a zero pivot's
    # eps-sized stand-in then yields no step.
    retry = _ipm(q, c, a, b, g, h, x_eq, tol=TOL, max_iter=2 * MAX_ITER, blocks=blocks,
                 reg=1e-9, shift=1e-14)
    if retry.status is SolveStatus.OPTIMAL or retry.status is SolveStatus.UNBOUNDED:
        return _finalize(retry, program)
    return Solution(SolveStatus.NUMERICAL_FAILURE, iterations=retry.iterations)


def min_violation(program: ConvexProgram, groups) -> np.ndarray | None:
    """Least total violation of a program's inequality rows, by group.

    ``groups[r]`` is the group (0, 1, ...) of inequality row ``r``; one
    nonnegative slack per group relaxes every row of its group, and the
    LP minimizes the sum of the slacks.  Bounds and equalities stay hard.
    Returns the slack per group, or None when that LP does not solve.
    """
    groups = np.asarray(groups, dtype=int)
    n, m, k = program.n, groups.size, int(groups.max()) + 1
    relax = sp.csr_matrix((-np.ones(m), (np.arange(m), groups)), shape=(m, k))
    a_eq = program.a_eq
    if a_eq is not None:
        a_eq = sp.hstack([a_eq, sp.csr_matrix((a_eq.shape[0], k))], format="csr")
    lb = program.lb if program.lb is not None else np.full(n, -np.inf)
    ub = program.ub if program.ub is not None else np.full(n, np.inf)
    sol = solve(ConvexProgram(
        c=np.concatenate([np.zeros(n), np.ones(k)]),
        a_eq=a_eq, b_eq=program.b_eq,
        g_ineq=sp.hstack([program.g_ineq, relax], format="csr"), h_ineq=program.h_ineq,
        lb=np.concatenate([lb, np.zeros(k)]), ub=np.concatenate([ub, np.full(k, np.inf)]),
        blocks=program.blocks,
    ))
    return sol.x[n:] if sol.optimal else None


@dataclass
class _IpmResult:
    status: SolveStatus
    x: np.ndarray | None = None
    iterations: int = 0


def _finalize(res: _IpmResult, program: ConvexProgram) -> Solution:
    if res.status is not SolveStatus.OPTIMAL:
        return Solution(res.status, iterations=res.iterations)
    x = res.x
    obj = float(0.5 * x @ (program.q @ x) + program.c @ x) if program.q is not None else float(program.c @ x)
    return Solution(SolveStatus.OPTIMAL, x=x, objective=obj, iterations=res.iterations)


def _scale_rows(m: sp.csr_matrix, rhs: np.ndarray):
    if m.shape[0] == 0:
        return m, rhs
    norms = np.maximum(abs(m).max(axis=1).toarray().ravel(), 1e-12)
    d = sp.diags(1.0 / norms)
    return (d @ m).tocsr(), rhs / norms


def _least_squares(a: sp.csr_matrix, b: np.ndarray):
    """Least-norm solution of Ax = b and whether the system is consistent."""
    out = spla.lsqr(a, b, atol=1e-12, btol=1e-12, iter_lim=10 * (a.shape[0] + a.shape[1]))
    x = out[0]
    resid = np.linalg.norm(a @ x - b, np.inf) if b.size else 0.0
    return x, resid <= 1e-7 * (1.0 + np.linalg.norm(b, np.inf) if b.size else 1.0)


def _solve_equality_qp(q, c, a, b, x_eq) -> Solution:
    n = q.shape[0]
    me = a.shape[0]
    kkt = np.block([[q.toarray() + _REG * np.eye(n), a.T.toarray()],
                    [a.toarray(), -_REG * np.eye(me)]])
    sol = sla.lu_solve(_lu(kkt, n, 0.0), np.concatenate([-c, b]), check_finite=False)
    x = sol[:n]
    stat = q @ x + c + (a.T @ sol[n:] if me else 0.0)
    scale = 1.0 + np.linalg.norm(c, np.inf)
    if np.linalg.norm(stat, np.inf) > 1e-6 * scale:
        return Solution(SolveStatus.UNBOUNDED)
    if me and np.linalg.norm(a @ x - b, np.inf) > 1e-6 * (1.0 + np.linalg.norm(b, np.inf)):
        return Solution(SolveStatus.INFEASIBLE)
    obj = float(0.5 * x @ (q @ x) + c @ x)
    return Solution(SolveStatus.OPTIMAL, x=x, objective=obj)


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


def _block_labels(blocks, n: int) -> np.ndarray:
    """Block index of every column; -1 marks a linking column."""
    label = np.full(n, -1)
    for i, sl in enumerate(blocks):
        if not (isinstance(sl, slice) and sl.step in (None, 1) and sl.start is not None
                and sl.stop is not None and 0 <= sl.start < sl.stop <= n):
            raise ValueError(f"block {sl} is not a nonempty column range within 0..{n}")
        if np.any(label[sl] >= 0):
            raise ValueError(f"block {sl} overlaps another block")
        label[sl] = i
    return label


def _row_blocks(m, label: np.ndarray):
    """Per row of ``m``, the block it touches (-1 for none); and whether
    any row touches two blocks."""
    m = sp.csr_matrix(m)
    lab = label[m.indices]
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    inb = lab >= 0
    hi = np.full(m.shape[0], -1)
    lo = np.full(m.shape[0], label.size)
    np.maximum.at(hi, rows[inb], lab[inb])
    np.minimum.at(lo, rows[inb], lab[inb])
    return hi, bool(np.any((hi >= 0) & (lo != hi)))


def _gram(m, rows: np.ndarray):
    """``gram(w)``: the dense ``M' diag(w[rows]) M`` of a sparse ``m``.

    Row ``i`` of ``m`` carries the weight ``w[rows[i]]``.  The product is
    formed by row shape, once classified here: a row with one entry adds
    ``w v^2`` to the diagonal, a short row (nnz^2 <= k for k columns)
    scatters its few products, and long rows are grouped by column
    support, each group of at least ``_GROUP_ROWS`` rows one dense
    product over its own columns only; the other long rows form one
    dense product over the union of their columns.
    """
    m = sp.csr_matrix(m, copy=True)
    m.sum_duplicates()      # sorted column indices: equal supports compare equal
    k, ptr = m.shape[1], m.indptr
    nnz = np.diff(ptr)
    one = np.flatnonzero(nnz == 1)
    d_col, d_val, d_row = m.indices[ptr[one]], m.data[ptr[one]] ** 2, rows[one]
    s_idx, s_val, s_row = [np.zeros(0, dtype=int)], [np.zeros(0)], [np.zeros(0, dtype=int)]
    short = np.flatnonzero((nnz > 1) & (nnz * nnz <= k))
    for length in np.unique(nnz[short]):
        r = short[nnz[short] == length]
        pos = ptr[r][:, None] + np.arange(length)
        c, v = m.indices[pos].astype(np.int64), m.data[pos]
        s_idx.append((c[:, :, None] * k + c[:, None, :]).ravel())
        s_val.append((v[:, :, None] * v[:, None, :]).ravel())
        s_row.append(np.repeat(rows[r], length * length))
    s_idx, s_val, s_row = np.concatenate(s_idx), np.concatenate(s_val), np.concatenate(s_row)
    supports: dict[bytes, list[int]] = {}
    for r in np.flatnonzero(nnz * nnz > k):
        supports.setdefault(m.indices[ptr[r]:ptr[r + 1]].tobytes(), []).append(r)
    groups = [r for r in supports.values() if len(r) >= _GROUP_ROWS]
    rest = [i for r in supports.values() if len(r) < _GROUP_ROWS for i in r]
    long = []
    for r in groups + [rest] * bool(rest):
        sub = m[r]
        cols = np.unique(sub.indices).astype(np.int64)
        flat = None if cols.size == k else (cols[:, None] * k + cols).ravel()
        long.append((rows[r], sub[:, cols].toarray(), flat))

    def gram(w):
        if s_idx.size:
            out = np.bincount(s_idx, weights=w[s_row] * s_val, minlength=k * k).reshape(k, k)
        else:
            out = np.zeros((k, k))
        out.flat[::k + 1] += np.bincount(d_col, weights=w[d_row] * d_val, minlength=k)
        for r, vals, flat in long:
            prod = (vals.T * w[r]) @ vals
            if flat is None:
                out += prod
            else:
                out.ravel()[flat] += prod.ravel()
        return out
    return gram


def _lu(mat: np.ndarray, n_x: int, shift: float):
    """LAPACK LU of a KKT matrix, overwriting it.

    Duplicate columns (identical units at one bus) can make the matrix
    exactly singular late in the iterations.  Only the exactly-zero
    pivots are then replaced by eps * max|K|: the Newton step is
    perturbed in the degenerate directions and nowhere else.  A nonzero
    ``shift`` first moves the whole diagonal away from zero by
    ``shift * max|K|``: up on the first ``n_x`` rows (the variables),
    down on the others (the equalities).
    """
    scale = max(1.0, float(np.abs(mat).max())) if mat.size else 1.0
    if shift:
        i = np.arange(mat.shape[0])
        mat[i, i] += np.where(i < n_x, shift, -shift) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(mat, overwrite_a=True, check_finite=False)
    zero = np.flatnonzero(lu.diagonal() == 0.0)
    lu[zero, zero] = np.finfo(float).eps * scale
    return lu, piv


def _kkt(q, a, g, blocks, reg: float, shift: float):
    """Factorization of the KKT matrices ``[[Q + G'WG + reg I, A'], [A, -reg I]]``.

    Returns ``factor(w)``, which LU-factors the matrix for the inequality
    weights ``w`` and returns the solve function of the result.  Each
    block's variables, with the equalities that touch the block, are
    eliminated by the LU of their own augmented matrix; the linking
    variables and the remaining equalities are solved from the Schur
    complement.  Without blocks that complement is the whole matrix.
    ``q``, ``a`` and ``g`` are sparse; every ``G'WG`` is formed by
    ``_gram`` from the rows of ``g`` it covers: a block's from its own
    rows over the block and the linking columns (which also gives those
    rows' linking part), the complement's from the rows that touch no
    block.  ``shift`` is passed on to ``_lu``.
    """
    n, me = q.shape[0], a.shape[0]
    label = _block_labels(blocks, n)
    g_blk, a_blk = _row_blocks(g, label)[0], _row_blocks(a, label)[0]
    link, eq_l = np.flatnonzero(label < 0), np.flatnonzero(a_blk < 0)

    def part(m, rows, cols):
        return m[rows][:, cols].toarray()

    def gram(rows, cols):
        return _gram(g[rows][:, cols], rows)

    rows_l = np.flatnonzero(g_blk < 0)
    q_l, a_l, gram_l = part(q, link, link), part(a, eq_l, link), gram(rows_l, link)
    parts = []
    for i, sl in enumerate(blocks):
        cols = np.r_[sl, link]
        rows, eqs = np.flatnonzero(g_blk == i), np.flatnonzero(a_blk == i)
        parts.append((sl, eqs, part(q, sl, cols), part(a, eqs, cols), gram(rows, cols)))
    nl = link.size
    a_lt = a_l.T
    reg_eye_l, neg_reg_eye_l = reg * np.eye(nl), -reg * np.eye(eq_l.size)

    def factor(w):
        s_xx = q_l + gram_l(w)
        elim = []
        for sl, eqs, q_b, a_b, gram_b in parts:
            nb = sl.stop - sl.start
            g_b = gram_b(w)
            h_b = q_b + g_b[:nb]
            s_xx += g_b[nb:, nb:]
            k_b = np.block([[h_b[:, :nb] + reg * np.eye(nb), a_b[:, :nb].T],
                            [a_b[:, :nb], -reg * np.eye(eqs.size)]])
            lu_b = _lu(k_b, nb, shift)
            cpl = np.vstack([h_b[:, nb:], a_b[:, nb:]])
            x_b = sla.lu_solve(lu_b, cpl, check_finite=False)
            s_xx -= cpl.T @ x_b
            elim.append((sl, eqs, nb, lu_b, cpl, x_b))
        lu_s = _lu(np.block([[s_xx + reg_eye_l, a_lt], [a_l, neg_reg_eye_l]]), nl, shift)
        if not blocks:
            return lambda rhs: sla.lu_solve(lu_s, rhs, check_finite=False)

        def solve(rhs):
            rx, ry = rhs[:n], rhs[n:]
            r_l = np.concatenate([rx[link], ry[eq_l]])
            t = []
            for sl, eqs, nb, lu_b, cpl, x_b in elim:
                t_b = sla.lu_solve(lu_b, np.concatenate([rx[sl], ry[eqs]]), check_finite=False)
                r_l[:nl] -= cpl.T @ t_b
                t.append(t_b)
            d_l = sla.lu_solve(lu_s, r_l, check_finite=False)
            out = np.empty(n + me)
            out[link], out[n + eq_l] = d_l[:nl], d_l[nl:]
            for (sl, eqs, nb, lu_b, cpl, x_b), t_b in zip(elim, t):
                d_b = t_b - x_b @ d_l[:nl]
                out[sl], out[n + eqs] = d_b[:nb], d_b[nb:]
            return out
        return solve
    return factor


def _ipm(q, c, a, b, g, h, x0, tol: float, max_iter: int, blocks=(),
         reg: float = _REG, shift: float = 0.0, farkas: bool = False) -> _IpmResult:
    """Primal-dual iterations from ``x0``.  With ``farkas`` they stop as
    INFEASIBLE at a Farkas ray of the dual iterates; the main solve sets
    it, the other callers solve programs already known to be feasible."""
    n = q.shape[0]
    me, mi = a.shape[0], g.shape[0]
    factor = _kkt(q, a, g, blocks, reg, shift)
    if not blocks:
        # the KKT matrix is dense anyway; so are the residual products
        q, a, g = q.toarray(), a.toarray(), g.toarray()
    at, gt = a.T, g.T

    x = x0.copy()
    y = np.zeros(me)
    s = np.maximum(h - g @ x, 1.0)
    z = np.clip(1.0 / s, 1e-6, 1e6)   # balanced products z*s ~= 1

    b_scale = 1.0 + (np.linalg.norm(b, np.inf) if me else 0.0)
    h_scale = 1.0 + np.linalg.norm(h, np.inf)
    c_scale = 1.0 + np.linalg.norm(c, np.inf)

    # Best near-feasible iterate: the fallback if late iterations lose the
    # factorization to ill-conditioning but the contract is already met.
    best = None
    best_err = np.inf
    last_step = 1.0

    def _accept_best(iterations):
        if best is not None and best_err <= 1.0:
            return _IpmResult(SolveStatus.OPTIMAL, x=best, iterations=iterations)
        return _IpmResult(SolveStatus.NUMERICAL_FAILURE, iterations=iterations)

    for it in range(1, max_iter + 1):
        qx = q @ x
        rd = qx + c + (at @ y if me else 0.0) + gt @ z
        rp = (a @ x - b) if me else np.zeros(0)
        rg = g @ x + s - h
        mu = float(z @ s) / mi
        obj = float(0.5 * x @ qx + c @ x)

        p_res = max(np.linalg.norm(rp, np.inf) / b_scale if me else 0.0,
                    np.linalg.norm(rg, np.inf) / h_scale)
        d_res = np.linalg.norm(rd, np.inf) / (c_scale + np.linalg.norm(qx, np.inf))
        gap = mu / (1.0 + abs(obj))
        err = max(p_res / 1e-7, d_res / 1e-6, gap / 1e-6)
        if err < best_err:
            best_err = err
            best = x.copy()
        if p_res <= tol * 10 and d_res <= tol * 10 and mu <= tol * (1.0 + abs(obj)):
            return _IpmResult(SolveStatus.OPTIMAL, x=x, iterations=it)
        if farkas:
            yz = max(np.abs(y).max(initial=0.0), z.max())
            if (np.linalg.norm(rd - qx - c, np.inf) <= FARKAS_EPS * yz
                    and b @ y + h @ z <= -FARKAS_EPS * yz):
                return _IpmResult(SolveStatus.INFEASIBLE, iterations=it)
        if np.linalg.norm(x, np.inf) > _HUGE:
            if p_res <= 1e-6:
                return _IpmResult(SolveStatus.UNBOUNDED, iterations=it)
            return _IpmResult(SolveStatus.NUMERICAL_FAILURE, iterations=it)

        w = np.minimum(z / np.maximum(s, 1e-14), 1e14)
        kkt_solve = factor(w)

        def newton(s_inv_rc):
            rx = -rd + gt @ s_inv_rc - gt @ (w * rg)
            rhs = np.concatenate([rx, -rp]) if me else rx
            sol = kkt_solve(rhs)
            if not np.all(np.isfinite(sol)):
                return None
            dx = sol[:n]
            dy = sol[n:] if me else np.zeros(0)
            g_dx = g @ dx
            ds = -rg - g_dx
            dz = -s_inv_rc + w * rg + w * g_dx
            return dx, dy, ds, dz

        step_aff = newton(z.copy())
        if step_aff is None:
            return _accept_best(it)
        dx_a, dy_a, ds_a, dz_a = step_aff
        ap = _max_step(s, ds_a)
        ad = _max_step(z, dz_a)
        mu_aff = float((s + ap * ds_a) @ (z + ad * dz_a)) / mi
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        # anti-jamming: when the previous step collapsed, re-center hard
        if last_step < 0.1:
            sigma = max(sigma, 0.5)
        if last_step < 0.01:
            sigma = max(sigma, 0.9)

        corr = (np.clip(ds_a * dz_a, -10.0 * mu, 10.0 * mu) - sigma * mu) / np.maximum(s, 1e-30)
        step = newton(z + corr)
        if step is None:
            return _accept_best(it)
        dx, dy, ds, dz = step
        ap = min(1.0, 0.995 * _max_step(s, ds))
        ad = min(1.0, 0.995 * _max_step(z, dz))
        last_step = min(ap, ad)
        x += ap * dx
        s += ap * ds
        y += ad * dy
        z += ad * dz
        s = np.maximum(s, 1e-300)
        z = np.maximum(z, 1e-300)

    return _accept_best(max_iter)


def _has_unbounded_ray(q, c, a, g, blocks) -> bool:
    """Certify a recession direction: Qd = 0, Ad = 0, Gd <= 0, c'd < 0.

    The direction is searched in the unit box, so the certificate LP is
    always bounded and feasible (d = 0).
    """
    n = q.shape[0]
    rows = [g]
    rhs = [np.zeros(g.shape[0])]
    eq_rows = [a] if a.shape[0] else []
    eq_rhs = [np.zeros(a.shape[0])] if a.shape[0] else []
    if q.nnz:
        eq_rows.append(q.tocsr())
        eq_rhs.append(np.zeros(n))
    a1 = sp.vstack(eq_rows, format="csr") if eq_rows else sp.csr_matrix((0, n))
    b1 = np.concatenate(eq_rhs) if eq_rhs else np.zeros(0)
    lo_rows = sp.vstack([sp.eye(n), -sp.eye(n)], format="csr")
    g2 = sp.vstack(rows + [lo_rows], format="csr")
    h2 = np.concatenate(rhs + [np.ones(2 * n)])
    res = _ipm(sp.csr_matrix((n, n)), c, a1, b1, g2, h2, np.zeros(n),
               tol=TOL, max_iter=MAX_ITER, blocks=blocks)
    if res.status is not SolveStatus.OPTIMAL:
        return False
    return float(c @ res.x) < -1e-7 * (1.0 + np.linalg.norm(c, np.inf))


def _phase1(a, b, g, h, x_eq, max_iter: int, blocks):
    """Minimal uniform inequality violation; None when that LP itself fails.
    The violation column links the blocks."""
    n = g.shape[1]
    mi = g.shape[0]
    g1 = sp.hstack([g, -np.ones((mi, 1))], format="csr")
    t_row = sp.csr_matrix(([-1.0], ([0], [n])), shape=(1, n + 1))
    g1 = sp.vstack([g1, t_row], format="csr")
    h1 = np.concatenate([h, [1.0]])
    a1 = sp.hstack([a, sp.csr_matrix((a.shape[0], 1))], format="csr") if a.shape[0] else sp.csr_matrix((0, n + 1))
    c1 = np.zeros(n + 1)
    c1[n] = 1.0
    t0 = max(1.0, float(np.max(g @ x_eq - h)) + 1.0) if mi else 1.0
    x0 = np.concatenate([x_eq, [t0]])
    q1 = sp.csr_matrix((n + 1, n + 1))
    res = _ipm(q1, c1, a1, b, g1, h1, x0, tol=TOL, max_iter=max_iter, blocks=blocks)
    if res.status is not SolveStatus.OPTIMAL:
        return None
    return float(res.x[n])
