"""Pytest plugin: one log line per ``dlrplan.qp.solve`` call.

    PYTHONPATH=src:tools python -m pytest -q -p solve_log --solve-log solves.log

Each line holds the running test's id, the program's variable count, a
hash of the program's fields and a hash of the solution (status,
iterations, x and objective), separated by tabs.  A ``q`` with no
stored entry hashes as an absent one: ``solve`` treats both alike.
Two checkouts solve the same programs to the same numbers exactly when
the lines of one log appear unchanged and in the same order in the
other's.  Solves in child processes are not logged.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import scipy.sparse as sp


def pytest_addoption(parser):
    parser.addoption("--solve-log", default=None, metavar="PATH",
                     help="append one line per qp.solve call to PATH")


def _feed(digest, value):
    """Hash a field exactly: arrays by dtype, shape and bytes; sparse
    matrices by their CSR arrays; anything else by its repr."""
    if value is None:
        digest.update(b"none;")
    elif sp.issparse(value):
        m = sp.csr_matrix(value)
        digest.update(f"csr{m.shape};".encode())
        for arr in (m.indptr, m.indices, m.data):
            _feed(digest, arr)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        digest.update(f"{arr.dtype.str}{arr.shape};".encode())
        digest.update(arr.tobytes())
    else:
        digest.update(repr(value).encode() + b";")


def _hash(*values) -> str:
    digest = hashlib.sha256()
    for value in values:
        _feed(digest, value)
    return digest.hexdigest()[:16]


def pytest_configure(config):
    path = config.getoption("--solve-log")
    if not path:
        return
    import dlrplan.qp as qp

    log = open(path, "a")
    inner = qp.solve

    def solve(program):
        sol = inner(program)
        test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" (", 1)[0]
        q = program.q if program.q is not None and program.q.nnz else None
        prog = _hash(program.c, q, *(getattr(program, f) for f in ("a_eq", "b_eq", "g_ineq",
                                                                    "h_ineq", "lb", "ub")),
                     tuple((b.start, b.stop) for b in program.blocks))
        out = _hash(sol.status.value, sol.iterations, sol.x, sol.objective)
        log.write(f"{test}\t{program.n}\t{prog}\t{out}\n")
        return sol

    qp.solve = solve
    config._solve_log = (log, qp, inner)


def pytest_unconfigure(config):
    state = getattr(config, "_solve_log", None)
    if state is not None:
        log, qp, inner = state
        qp.solve = inner
        log.close()
