from contextlib import redirect_stdout
from functools import lru_cache
from io import StringIO
from types import SimpleNamespace

import numpy as np
import pytest

from qcover import DecoherenceFunctional, HistorySpace, enumerate_inextendible
from qcover.ratspan import _eliminate


@pytest.fixture
def space3():
    return HistorySpace(3)


@pytest.fixture
def space4():
    return HistorySpace(4)


@pytest.fixture(scope="session")
def inextendible():
    """n -> the inextendible antichains of HistorySpace(n), as a tuple.

    Each n is enumerated once per session: at n = 6 that is 31,745
    antichains, which several test modules walk.
    """
    return lru_cache(maxsize=None)(
        lambda n: tuple(enumerate_inextendible(HistorySpace(n)))
    )


@pytest.fixture(scope="session")
def eliminated(inextendible):
    """n -> (ranks, in_span) of the loop elimination, one entry per
    inextendible antichain of HistorySpace(n), in enumeration order.

    Each antichain's member columns plus the ones column are eliminated
    once, as ``span_solve`` does: the rank is the pivot count, and the
    ones vector is in the span when no row past the pivots has a nonzero
    ones entry.
    """

    def run(n):
        ranks, in_span = [], []
        for ac in inextendible(n):
            m = len(ac.masks)
            rows = [[mask >> b & 1 for mask in ac.masks] + [1]
                    for b in range(n)]
            rank = len(_eliminate(rows, m))
            ranks.append(rank)
            in_span.append(not any(row[m] for row in rows[rank:]))
        return ranks, in_span

    return lru_cache(maxsize=None)(run)


@pytest.fixture
def d2():
    """Two-slit functional with total destructive interference."""
    return DecoherenceFunctional(np.array([[0.5, -0.5], [-0.5, 0.5]]))


@pytest.fixture
def d3():
    """Rank-one three-slit functional built from (1, -1, 1)/sqrt(3)."""
    v = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    return DecoherenceFunctional(np.outer(v, v))


@pytest.fixture
def diag4():
    """Uniform classical functional on four histories."""
    return DecoherenceFunctional(np.diag([0.25, 0.25, 0.25, 0.25]))


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_volatile(v)
            for k, v in obj.items()
            if k not in {"timestamp", "elapsed_ms"}
        }
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


@pytest.fixture
def strip_volatile():
    """Drop the fields that legitimately differ between identical runs."""
    return _strip_volatile


def _spied_cli_run(argv):
    # exit code, the objects handed to the writer and the stdout text
    import qcover.cli
    from qcover.histories import _write_json

    seen = []

    def spy(obj, write):
        seen.append(obj)
        _write_json(obj, write)

    with pytest.MonkeyPatch.context() as mp, redirect_stdout(StringIO()) as buf:
        mp.setattr(qcover.cli, "_write_json", spy)
        code = qcover.cli.main(argv)
    return SimpleNamespace(code=code, seen=seen, out=buf.getvalue())


# the commands the session runs once, each by the fixture named here
SHARED_CLI_RUNS = {
    "scan --n 6": "scan_n6_cli",
    "antichain enumerate --n 6": "enumerate_n6_cli",
}


@pytest.fixture(scope="session")
def scan_n6_cli():
    """One CLI run of ``scan --n 6``, shared by the tests that read it.

    Holds the exit ``code``, the objects handed to the writer (``seen``),
    the stdout text (``out``), and the n = 6 label table with a copy of
    its lists (``table``, ``before``) taken before the run.
    """
    from qcover.antichain import _label_table

    table = _label_table(6)
    before = [list(labels) for labels in table]
    run = _spied_cli_run(["scan", "--n", "6"])
    run.table, run.before = table, before
    return run


@pytest.fixture(scope="session")
def enumerate_n6_cli(scan_n6_cli):
    """One CLI run of ``antichain enumerate --n 6``, made after the
    session's ``scan --n 6`` run, with the same fields but the table."""
    return _spied_cli_run(["antichain", "enumerate", "--n", "6"])
