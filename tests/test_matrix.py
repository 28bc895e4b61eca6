"""The cell table of ``tests/matrix.py`` itself: ids, coverage, marks,
and the guard that lets its references save mid-run."""

import itertools

import pytest

from repro.fl import (ALGORITHMS, AsyncConfig, AsyncFederatedRunner,
                      AsyncProfile)
from repro.fl.checkpoint import save_async_checkpoint
from repro.fl.stub import make_stub

from tests import matrix


def test_cell_ids_are_unique():
    ids = [cell.id for cell in matrix.CELLS]
    assert len(ids) == len(set(ids))
    assert all(cell.matrix in matrix.MATRICES for cell in matrix.CELLS)


def test_resume_slice_is_every_algorithm_by_every_driver():
    """The slice that claims "every algorithm x driver": each name of
    ALGORITHMS plus spatl and spatl_rl, on the sync, async and scale
    drivers, with and without faults, once each."""
    cells = [(c.algorithm, type(c.driver).__name__.lower(), c.faults)
             for c in matrix.CELLS if c.matrix == "resume"]
    assert sorted(cells) == sorted(itertools.product(
        (*ALGORITHMS, "spatl", "spatl_rl"), ("sync", "async", "scale"),
        (False, True)))


def test_routes_slice_is_every_server_step():
    assert {c.algorithm for c in matrix.CELLS if c.matrix == "routes"} \
        >= {*ALGORITHMS, "spatl"}


def test_no_cell_leaves_tier1():
    """No cell is skipped; the only mark is a strict xfail, which fails
    the suite once the expected error goes away."""
    params = [p for name in matrix.MATRICES for p in matrix.params(name)]
    assert len(params) == len(matrix.CELLS)
    marked = [p for p in params if p.marks]
    assert marked                          # the async x faults cells
    for param in marked:
        for mark in param.marks:
            assert mark.name == "xfail", (param.id, mark.name)
            assert mark.kwargs["strict"] is True, param.id


@pytest.mark.parametrize("change", [
    lambda r: r._train(next(j for j in r.jobs.values() if j.pending)),
    lambda r: r.snapshots.popitem(),
    lambda r: setattr(r.clock, "now", r.clock.now + 1e-9),
    lambda r: r.counters.update(trained=r.counters["trained"] + 1),
], ids=["train", "snapshot", "clock", "counter"])
def test_a_save_that_changes_the_run_is_caught(change, tmp_path):
    """``save_unchanged`` is what lets a reference save mid-run and go on
    as the straight run: a save that trained a pending job, dropped a
    snapshot, moved the clock or bumped a counter fails it."""
    runner = AsyncFederatedRunner(
        make_stub(n_clients=8, seed=3), AsyncProfile(seed=3, **matrix.HOSTILE),
        AsyncConfig(buffer_k=2, max_inflight=4, max_queue=4))
    while not runner.snapshots:
        assert runner.pump(1) == 1
    matrix.save_unchanged(save_async_checkpoint, runner, tmp_path / "a.npz")
    with pytest.raises(AssertionError, match="changed the run"):
        matrix.save_unchanged(
            lambda r, path: change(r) or save_async_checkpoint(r, path),
            runner, tmp_path / "b.npz")
