"""Pytest plugin: one log line per ``dlrplan.qp.solve`` call; and the
comparison of two such logs.

    PYTHONPATH=src:tools python -m pytest -q -p solve_log --solve-log solves.log
    python tools/solve_log.py PARENT.log CHANGE.log

Each line holds the running test's id, the program's variable count, a
hash of the program's fields, the solution's status and a hash of the
solution (status, iterations, x and objective), separated by tabs.  A
``q`` with no stored entry hashes as an absent one: ``solve`` treats
both alike.  Two checkouts solve the same programs to the same numbers
exactly when the lines of one log appear unchanged and in the same
order in the other's.  Solves in child processes are not logged.

The comparison matches the lines of PARENT.log, in order, against
CHANGE.log, which may hold more lines (new tests).  An infeasible line
is matched by its test, size, program hash and status alone, so its
iteration count may change; every other line must match in full.  It
prints per status how many lines are identical and how many changed,
and exits 1 when a line is missing from CHANGE.log.  Both logs must be
written by this version of the plugin.
"""

from __future__ import annotations

import hashlib
import os
import sys
from collections import Counter

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
        log.write(f"{test}\t{program.n}\t{prog}\t{sol.status.value}\t{out}\n")
        return sol

    qp.solve = solve
    config._solve_log = (log, qp, inner)


def pytest_unconfigure(config):
    state = getattr(config, "_solve_log", None)
    if state is not None:
        log, qp, inner = state
        qp.solve = inner
        log.close()


def _key(line: str) -> str:
    """What must match: the whole line, or an infeasible line without its
    solution hash."""
    fields = line.split("\t")
    return "\t".join(fields[:4]) if fields[3] == "infeasible" else line


def compare(parent: list[str], change: list[str]) -> tuple[dict, list[str]]:
    """Per status, ``[identical, changed]`` counts of the parent's lines
    found in order in ``change``; and the parent's lines not found."""
    keys = [_key(line) for line in change]
    counts: dict[str, list[int]] = {}
    missing, pos = [], 0
    for line in parent:
        key = _key(line)
        try:
            found = keys.index(key, pos)
        except ValueError:
            missing.append(line)
            continue
        pos = found + 1
        counts.setdefault(line.split("\t")[3], [0, 0])[change[found] != line] += 1
    return counts, missing


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/solve_log.py PARENT.log CHANGE.log", file=sys.stderr)
        return 2
    parent, change = (open(path).read().splitlines() for path in argv)
    counts, missing = compare(parent, change)
    for status, (same, changed) in sorted(counts.items()):
        print(f"{status}: {same} identical, {changed} changed")
    by_status = Counter(line.split("\t")[3] for line in missing)
    for status, n in sorted(by_status.items()):
        print(f"{status}: {n} missing or changed")
    for line in missing[:20]:
        print(f"missing: {line}")
    print(f"{len(change) - sum(map(sum, counts.values()))} lines only in the change")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
