"""Tests for the convex programming layer."""

import dataclasses

import numpy as np
import scipy.sparse as sp
import pytest

from dlrplan import qp
from dlrplan.qp import ConvexProgram, SolveStatus, VariableLayout, solve


def with_blocks(program, blocks=None):
    """The same program with its first ceil(n/2) columns declared one block.

    One block is always valid: no row can touch two.  The other columns
    link, so both the block elimination and the Schur complement run.
    """
    if blocks is None:
        blocks = (slice(0, (program.n + 1) // 2),)
    return dataclasses.replace(program, blocks=blocks)


def solve_both_paths(program):
    """Solutions from the dense KKT factorization and from the block one."""
    return solve(program), solve(with_blocks(program))


def test_min_x_with_lower_bound():
    # min x s.t. x >= 1
    sol = solve(ConvexProgram(c=[1.0], lb=[1.0]))
    assert sol.optimal
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.objective == pytest.approx(1.0, abs=1e-7)


def test_quadratic_with_active_bound():
    # min (x-3)^2 s.t. x <= 2 -> x = 2, objective 1 (objective offset 9 added by hand)
    sol = solve(ConvexProgram(c=[-6.0], q=[[2.0]], ub=[2.0]))
    assert sol.optimal
    assert sol.x[0] == pytest.approx(2.0, abs=1e-7)
    assert sol.objective + 9.0 == pytest.approx(1.0, abs=1e-6)


def test_equality_constrained_qp_kkt_by_hand():
    # min x^2 + y^2 s.t. x + y = 1 -> (0.5, 0.5), objective 0.5
    sol = solve(ConvexProgram(c=[0.0, 0.0], q=2 * np.eye(2), a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert sol.optimal
    assert sol.x == pytest.approx([0.5, 0.5], abs=1e-7)
    assert sol.objective == pytest.approx(0.5, abs=1e-8)


def test_lp_with_general_inequalities():
    # min -x - y s.t. x + 2y <= 4, 3x + y <= 6, x, y >= 0 -> vertex (8/5, 6/5)
    sol = solve(ConvexProgram(
        c=[-1.0, -1.0],
        g_ineq=[[1.0, 2.0], [3.0, 1.0]],
        h_ineq=[4.0, 6.0],
        lb=[0.0, 0.0],
    ))
    assert sol.optimal
    assert sol.x == pytest.approx([1.6, 1.2], abs=1e-6)
    assert sol.objective == pytest.approx(-2.8, abs=1e-7)


def test_infeasible_is_reported():
    for sol in solve_both_paths(ConvexProgram(c=[1.0], lb=[2.0], ub=[1.0])):
        assert sol.status is SolveStatus.INFEASIBLE


def test_infeasible_general_rows():
    # x <= 0 and x >= 1
    prog = ConvexProgram(c=[0.0], g_ineq=[[1.0], [-1.0]], h_ineq=[0.0, -1.0])
    for sol in solve_both_paths(prog):
        assert sol.status is SolveStatus.INFEASIBLE


def test_inconsistent_equalities():
    prog = ConvexProgram(c=[0.0, 0.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 2.0])
    for sol in solve_both_paths(prog):
        assert sol.status is SolveStatus.INFEASIBLE


def test_unbounded_lp():
    for sol in solve_both_paths(ConvexProgram(c=[1.0], ub=[5.0])):
        assert sol.status is SolveStatus.UNBOUNDED


def test_unbounded_unconstrained():
    for sol in solve_both_paths(ConvexProgram(c=[1.0, 0.0])):
        assert sol.status is SolveStatus.UNBOUNDED


def test_fixed_variable_pair_becomes_equality():
    sol = solve(ConvexProgram(c=[1.0, 1.0], lb=[2.0, 0.0], ub=[2.0, 10.0]))
    assert sol.optimal
    assert sol.x == pytest.approx([2.0, 0.0], abs=1e-7)


def test_duplicate_columns_reach_optimum():
    """Two identical units: the online re-dispatch LP in miniature.

    Units 0 and 1 sit at one bus (equal columns, equal prices), unit 2
    at the slack.  The line carries 3 against a limit of 1, so 2 MW
    must move from the bus to the slack at 5 + 20 $/MW.  The duplicate
    columns can make the late KKT matrices exactly singular.
    """
    shift = np.array([1.0, 1.0, 0.0])
    row = np.concatenate([shift, -shift])[None, :]
    prog = ConvexProgram(
        c=[20.0, 20.0, 20.0, 5.0, 5.0, 5.0],
        a_eq=np.concatenate([np.ones(3), -np.ones(3)])[None, :], b_eq=[0.0],
        g_ineq=np.vstack([row, -row]), h_ineq=[1.0 - 3.0, 1.0 + 3.0],
        lb=np.zeros(6), ub=np.full(6, 2.0),
    )
    # the default block holds units 0 and 1; the last one holds all six
    for sol in (*solve_both_paths(prog), solve(with_blocks(prog, (slice(0, 6),)))):
        assert sol.optimal
        assert sol.objective == pytest.approx(50.0, rel=1e-8)
        assert sol.x[2] == pytest.approx(2.0, abs=1e-6)
        assert sol.x[3] + sol.x[4] == pytest.approx(2.0, abs=1e-6)


def _projected_gradient_box_qp(q, c, lb, ub, iters=200_000):
    """Oracle: projected gradient on min 1/2 x'Qx + c'x with box constraints."""
    lip = np.linalg.eigvalsh(q).max()
    step = 1.0 / max(lip, 1e-12)
    x = np.clip(np.zeros(c.size), lb, ub)
    for _ in range(iters):
        x_new = np.clip(x - step * (q @ x + c), lb, ub)
        if np.linalg.norm(x_new - x, np.inf) < 1e-13:
            x = x_new
            break
        x = x_new
    return x


@pytest.mark.parametrize("seed", range(8))
def test_random_box_qp_matches_projected_gradient(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    m = rng.normal(size=(n, n))
    q = m.T @ m + 0.1 * np.eye(n)
    c = rng.normal(size=n)
    lb = rng.uniform(-2.0, -0.5, size=n)
    ub = rng.uniform(0.5, 2.0, size=n)
    sol = solve(ConvexProgram(c=c, q=q, lb=lb, ub=ub))
    assert sol.optimal
    x_ref = _projected_gradient_box_qp(q, c, lb, ub)
    obj_ref = 0.5 * x_ref @ (q @ x_ref) + c @ x_ref
    scale = 1.0 + abs(obj_ref)
    assert abs(sol.objective - obj_ref) / scale <= 1e-6
    assert np.allclose(sol.x, x_ref, atol=1e-5)


@pytest.mark.parametrize("seed", range(4))
def test_tightening_inequality_never_decreases_objective(seed):
    rng = np.random.default_rng(100 + seed)
    n = 5
    m = rng.normal(size=(n, n))
    q = m.T @ m + 0.5 * np.eye(n)
    c = rng.normal(size=n)
    g = rng.normal(size=(3, n))
    h = g @ rng.normal(size=n) + rng.uniform(0.5, 1.5, size=3)  # feasible by construction
    base = solve(ConvexProgram(c=c, q=q, g_ineq=g, h_ineq=h))
    tight = solve(ConvexProgram(c=c, q=q, g_ineq=g, h_ineq=h - 0.3))
    assert base.optimal
    if tight.optimal:
        assert tight.objective >= base.objective - 1e-7 * (1 + abs(base.objective))


def test_solution_residuals_within_contract():
    rng = np.random.default_rng(7)
    n = 12
    m = rng.normal(size=(n, n))
    q = m.T @ m + 0.2 * np.eye(n)
    c = rng.normal(size=n)
    a = rng.normal(size=(2, n))
    x_feas = rng.normal(size=n)
    b = a @ x_feas
    g = rng.normal(size=(6, n))
    h = g @ x_feas + rng.uniform(0.1, 1.0, size=6)
    prog = ConvexProgram(c=c, q=q, a_eq=a, b_eq=b, g_ineq=g, h_ineq=h)
    for sol in solve_both_paths(prog):
        assert sol.optimal
        assert np.linalg.norm(a @ sol.x - b, np.inf) <= 1e-6 * (1 + np.linalg.norm(b, np.inf))
        assert np.max(g @ sol.x - h) <= 1e-6 * (1 + np.linalg.norm(h, np.inf))


def test_determinism():
    rng = np.random.default_rng(3)
    n = 6
    m = rng.normal(size=(n, n))
    q = m.T @ m + 0.3 * np.eye(n)
    c = rng.normal(size=n)
    prog = ConvexProgram(c=c, q=q, lb=-np.ones(n), ub=np.ones(n))
    for a, b in zip(solve_both_paths(prog), solve_both_paths(prog)):
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective


def test_rejects_asymmetric_q():
    with pytest.raises(ValueError):
        ConvexProgram(c=[0.0, 0.0], q=[[1.0, 2.0], [0.0, 1.0]])


def test_rejects_indefinite_q():
    with pytest.raises(ValueError):
        ConvexProgram(c=[0.0], q=[[-1.0]])


def test_variable_layout_offsets():
    lay = VariableLayout()
    p = lay.add("p", 3)
    d = lay.add("d", 2)
    assert p == slice(0, 3)
    assert d == slice(3, 5)
    assert lay.size == 5
    with pytest.raises(ValueError):
        lay.add("p", 1)


def test_rows_and_band_match_dense_reference():
    lay = VariableLayout()
    a = lay.add("a", 2)
    b = lay.add("b", 3)
    m_a = np.array([[1.0, 0.0], [0.0, -2.0]])
    m_b = np.array([[0.0, 3.0, 0.0], [4.0, 0.0, 5.0]])
    rows = lay.rows((b, m_b), (a, m_a))
    ref = np.hstack([m_a, m_b])
    assert np.array_equal(rows.toarray(), ref)
    assert rows.has_sorted_indices
    assert rows.nnz == np.count_nonzero(ref)

    # a negated zero block holds -0.0 entries; none may be stored
    offset, limit = np.array([1.0, -2.0]), np.array([10.0, 20.0])
    g, h = lay.band([(a, m_a), (b, -np.zeros((2, 3)))], offset, limit)
    ref = np.hstack([m_a, np.zeros((2, 3))])
    assert np.array_equal(g.toarray(), np.vstack([ref, -ref]))
    assert g.nnz == 2 * np.count_nonzero(ref)
    assert np.all(g.data != 0.0)
    assert np.array_equal(h, [9.0, 22.0, 11.0, 18.0])

    one_row = lay.rows((a, [1.0, -1.0]), (slice(4, 5), 2.0))
    assert np.array_equal(one_row.toarray(), [[1.0, -1.0, 0.0, 0.0, 2.0]])
    with pytest.raises(ValueError):
        lay.rows((a, np.ones((2, 2))), (b, np.ones((1, 3))))


def test_min_violation_slack_per_group():
    # Group 0 asks x <= 1 and x >= 3; the hard equality x = y and the hard
    # bound y >= 3 pin x at 3, so its slack is 2 (1 if the bound gave way).
    # Group 1 (y <= 10) holds.
    prog = ConvexProgram(
        c=[0.0, 0.0], a_eq=[[1.0, -1.0]], b_eq=[0.0],
        g_ineq=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], h_ineq=[1.0, -3.0, 10.0],
        lb=[-np.inf, 3.0],
    )
    for program in (prog, with_blocks(prog)):
        slack = qp.min_violation(program, [0, 0, 1])
        assert slack == pytest.approx([2.0, 0.0], abs=1e-6)


def test_min_violation_none_when_hard_part_infeasible():
    prog = ConvexProgram(c=[0.0], g_ineq=[[1.0]], h_ineq=[0.0], lb=[2.0], ub=[1.0])
    assert qp.min_violation(prog, [0]) is None


@pytest.mark.parametrize("seed", range(3))
def test_block_bordered_qp_matches_dense_factorization(seed):
    """Blocks with their own equalities and rows, bordered by linking columns."""
    rng = np.random.default_rng(200 + seed)
    n_blocks, nb, nl = 4, 6, 5
    n = n_blocks * nb + nl
    link = slice(n_blocks * nb, n)
    blocks = tuple(slice(i * nb, (i + 1) * nb) for i in range(n_blocks))
    g_parts, a_parts = [], []
    for sl in blocks:
        g_b = np.zeros((8, n))
        g_b[:, sl] = rng.normal(size=(8, nb))
        g_b[:4, link] = rng.normal(size=(4, nl))
        g_parts.append(g_b)
        a_b = np.zeros((2, n))
        a_b[:, sl] = rng.normal(size=(2, nb))
        a_b[0, link] = rng.normal(size=nl)
        a_parts.append(a_b)
    g_link = np.zeros((3, n))
    g_link[:, link] = rng.normal(size=(3, nl))
    a_link = np.zeros((1, n))
    a_link[0, link] = 1.0
    g, a = np.vstack(g_parts + [g_link]), np.vstack(a_parts + [a_link])
    x_feas = rng.uniform(-0.5, 0.5, size=n)
    d = rng.uniform(0.1, 1.0, size=n)
    d[blocks[0]] = 0.0                                 # an LP block
    program = ConvexProgram(
        c=rng.normal(size=n), q=sp.diags(d),
        a_eq=a, b_eq=a @ x_feas, g_ineq=g, h_ineq=g @ x_feas + rng.uniform(0.1, 1.0, size=len(g)),
        lb=np.full(n, -2.0), ub=np.full(n, 2.0),
    )
    dense, block = solve(program), solve(with_blocks(program, blocks))
    assert dense.optimal and block.optimal
    assert block.iterations == dense.iterations
    assert block.objective == pytest.approx(dense.objective, rel=1e-8)
    assert np.allclose(block.x, dense.x, atol=1e-8)


def test_blocks_must_not_couple():
    base = dict(c=np.zeros(4), g_ineq=[[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]], h_ineq=[1.0, 1.0])
    ConvexProgram(**base, blocks=(slice(0, 1), slice(1, 2)))          # rows touch one block each
    with pytest.raises(ValueError, match="couples two blocks"):
        ConvexProgram(**base, blocks=(slice(0, 1), slice(2, 3)))
    with pytest.raises(ValueError, match="couples two blocks"):
        ConvexProgram(c=np.zeros(2), a_eq=[[1.0, 1.0]], b_eq=[1.0], blocks=(slice(0, 1), slice(1, 2)))
    with pytest.raises(ValueError, match="couples two blocks"):
        ConvexProgram(c=np.zeros(2), q=[[1.0, 0.5], [0.5, 1.0]], blocks=(slice(0, 1), slice(1, 2)))
    with pytest.raises(ValueError, match="overlaps"):
        ConvexProgram(**base, blocks=(slice(0, 2), slice(1, 3)))
    with pytest.raises(ValueError, match="column range"):
        ConvexProgram(**base, blocks=(slice(3, 5),))
