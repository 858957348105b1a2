"""Simulation harness: aggregation arithmetic, grid layout, parallel determinism."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

import crtgee.gee
import crtgee.simulate

from crtgee import (
    ALL_KINDS,
    ALL_MODELS,
    DomainError,
    EstimatorKind,
    Family,
    FactorialGrid,
    FixedSize,
    GammaSize,
    Link,
    ModelBlock,
    ModelSpec,
    Scenario,
    TYPE1_BAND,
    aggregate,
    result_rows,
    run_block,
    run_grid,
    run_scenario,
)

KINDS3 = (EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD)


def scenario(replicates=10, **kw):
    base = dict(n_clusters=10, sizes=FixedSize(20), pi0=0.3, pi1=0.3, icc=0.05, seed=2026)
    base.update(kw)
    return Scenario(replicates=replicates, **base)


def block(records, kinds):
    """A ModelBlock from per-replicate (reason, beta1, {kind: (se, reject) or failure name})."""
    nan = float("nan")
    n = len(records)
    return ModelBlock(
        reason=tuple(reason for reason, _, _ in records),
        iterations=np.ones(n, dtype=int),
        beta=np.array([[0.0, nan if b is None else b] for _, b, _ in records]),
        alpha=np.zeros(n),
        phi=np.ones(n),
        alpha_clamped=np.zeros(n, dtype=bool),
        q_max=np.full(n, nan),
        se={k: np.array([e[k][0] if isinstance(e.get(k), tuple) else nan
                         for _, _, e in records]) for k in kinds},
        reject={k: np.array([isinstance(e.get(k), tuple) and e[k][1] for _, _, e in records])
                for k in kinds},
        failures={k: tuple(e[k] if isinstance(e.get(k), str) else None for _, _, e in records)
                  for k in kinds},
    )


def test_aggregate_hand_fixture():
    # five replicates, one non-converged; by hand:
    # beta1 of the converged: 0.2, -0.1, 0.4, 0.1 -> ESD = sd(ddof=1)
    # robust se: 0.3, 0.2, 0.5, 0.2 -> mean 0.3
    # robust rejects 2 of the 4 converged -> 0.5
    kind = EstimatorKind.ROBUST
    records = block([
        (None, 0.2, {kind: (0.3, True)}),
        (None, -0.1, {kind: (0.2, False)}),
        (None, 0.4, {kind: (0.5, True)}),
        (None, 0.1, {kind: (0.2, False)}),
        ("max_iterations", None, {}),
    ], (kind,))
    res = aggregate(scenario(), ALL_MODELS[0], records, kinds=(kind,))

    beta = np.array([0.2, -0.1, 0.4, 0.1])
    esd = float(np.std(beta, ddof=1))
    assert res.n_replicates == 5
    assert res.n_converged == 4
    assert res.convergence_rate == pytest.approx(0.8, abs=0)
    assert res.esd == pytest.approx(esd, rel=1e-15)

    summ = res.estimators[kind]
    assert summ.n_eval == 4
    assert summ.mean_se == pytest.approx(0.3, rel=1e-15)
    assert summ.rejections == 2
    assert summ.type1_error == pytest.approx(0.5, abs=0)
    assert summ.acceptable is False
    want_bias = float(np.mean((np.array([0.3, 0.2, 0.5, 0.2]) - esd) / esd * 100.0))
    assert summ.percent_bias == pytest.approx(want_bias, rel=1e-12)
    assert res.diagnostics["nonconvergence"] == {"max_iterations": 1}


def test_percent_bias_is_plus_ten_when_se_is_inflated_ten_percent():
    kind = EstimatorKind.ROBUST
    rng = np.random.default_rng(8)
    beta = rng.normal(size=50)
    esd = float(np.std(beta, ddof=1))
    records = block([(None, float(b), {kind: (1.1 * esd, False)}) for b in beta], (kind,))
    res = aggregate(scenario(replicates=50), ALL_MODELS[0], records, kinds=(kind,))
    assert res.estimators[kind].percent_bias == pytest.approx(10.0, abs=1e-9)


def test_aggregate_handles_zero_convergence():
    records = block([("max_iterations", None, {}) for _ in range(3)], KINDS3)
    res = aggregate(scenario(replicates=3), ALL_MODELS[0], records, kinds=KINDS3)
    assert res.n_converged == 0
    assert res.esd is None
    for kind in KINDS3:
        summ = res.estimators[kind]
        assert summ.mean_se is None
        assert summ.type1_error is None
        assert summ.acceptable is None


def test_estimator_failures_counted_as_non_rejections():
    # a converged replicate whose KC computation failed contributes to the
    # denominator but cannot reject
    kind = EstimatorKind.KC
    records = block([
        (None, 0.1, {kind: (0.2, True)}),
        (None, 0.2, {kind: "CorrectionSingularityError"}),
    ], (kind,))
    res = aggregate(scenario(replicates=2), ALL_MODELS[0], records, kinds=(kind,))
    summ = res.estimators[kind]
    assert summ.n_eval == 1
    assert summ.rejections == 1
    assert summ.type1_error == pytest.approx(0.5, abs=0)
    assert res.diagnostics["estimator_failures"] == {("kc", "CorrectionSingularityError"): 1}


def test_run_replicate_shares_one_dataset_across_models():
    sc = scenario()
    out = run_block(sc, (0,), models=ALL_MODELS, kinds=KINDS3)
    assert set(out) == {m.label() for m in ALL_MODELS}
    again = run_block(sc, (0,), models=ALL_MODELS, kinds=KINDS3)
    for label in out:
        assert np.array_equal(out[label].converged, again[label].converged)
        assert np.array_equal(out[label].beta, again[label].beta)
        for kind in KINDS3:
            assert np.array_equal(out[label].se[kind], again[label].se[kind], equal_nan=True)
    # identity-link and log-link fits of the same balanced dataset agree
    # on the fitted arm means, so their beta1 differ but derive from one draw
    bl = out["binomial-log"]
    bi = out["binomial-identity"]
    if bl.converged[0] and bi.converged[0]:
        assert bl.beta[0, 1] != bi.beta[0, 1]


def test_nonconvergence_recorded_without_aborting():
    # a rare outcome with tiny clusters forces zero-event arms in some
    # replicates; the log-link record must carry a reason while the
    # gaussian fit of the same dataset still converges
    sc = Scenario(
        n_clusters=4, sizes=FixedSize(3), pi0=0.05, pi1=0.05, icc=0.1,
        replicates=40, seed=2026,
    )
    models = (ModelSpec(Family.BINOMIAL, Link.LOG), ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    saw_failure = False
    for rep in range(40):
        out = run_block(sc, (rep,), models=models, kinds=KINDS3)
        rec = out["binomial-log"]
        if not rec.converged[0]:
            saw_failure = True
            assert rec.reason[0]
            assert out["gaussian-identity"].converged[0]
    assert saw_failure


def test_factorial_grid_layout():
    grid = FactorialGrid(
        n_clusters=(6, 10, 20, 30, 100),
        sizes=(FixedSize(30), FixedSize(100), GammaSize(30, 0.25), GammaSize(30, 1.0)),
        pi0=(0.05, 0.1, 0.2, 0.3, 0.5),
        icc=(0.01, 0.05, 0.1),
    )
    assert grid.n_scenarios == 300
    cells = grid.scenarios()
    assert len(cells) == 300
    assert [sc.index for sc in cells] == list(range(300))
    assert all(sc.pi1 == sc.pi0 for sc in cells)
    # last factor varies fastest
    assert cells[0].icc == 0.01 and cells[1].icc == 0.05 and cells[2].icc == 0.1
    assert cells[0].n_clusters == 6 and cells[-1].n_clusters == 100


def test_grid_rejects_fewer_than_4_clusters():
    with pytest.raises(DomainError, match="n_clusters must be >= 4.*got 2"):
        FactorialGrid(n_clusters=(6, 2), sizes=(FixedSize(8),), pi0=(0.3,), icc=(0.05,))
    assert FactorialGrid(n_clusters=(4,), sizes=(FixedSize(8),), pi0=(0.3,),
                         icc=(0.05,)).n_scenarios == 1
    # a single trial of 2 clusters stays valid input for the generator
    assert Scenario(n_clusters=2, sizes=FixedSize(8), pi0=0.3, pi1=0.3, icc=0.05).n_clusters == 2


def test_run_scenario_counts():
    sc = scenario(replicates=6)
    results = run_scenario(sc, models=ALL_MODELS[:2], kinds=KINDS3)
    assert len(results) == 2
    for res in results:
        assert res.n_replicates == 6
        assert set(res.estimators) == set(KINDS3)


def test_rows_schema_and_values():
    sc = scenario(replicates=6)
    res = run_scenario(sc, models=(ALL_MODELS[0],), kinds=ALL_KINDS)[0]
    rows = result_rows(res)
    assert len(rows) == len(ALL_KINDS)
    assert [r["estimator"] for r in rows] == [k.value for k in ALL_KINDS]
    for r in rows:
        assert r["scenario_id"] == sc.index
        assert r["n_clusters"] == 10
        assert r["cluster_size"] == 20.0
        assert r["cv"] == 0.0
        assert r["family"] == "binomial"
        assert r["link"] == "log"
        assert r["n_rep"] == 6
        if r["type1"] is not None:
            assert (TYPE1_BAND[0] <= r["type1"] <= TYPE1_BAND[1]) == r["acceptable"]


def test_run_grid_parallelism_is_invisible():
    grid = FactorialGrid(
        n_clusters=(6, 10),
        sizes=(FixedSize(8),),
        pi0=(0.3,),
        icc=(0.0, 0.1),
        models=ALL_MODELS[:2],
        estimators=KINDS3,
        replicates=8,
        seed=2026,
    )
    serial = [result_rows(r) for block in run_grid(grid, threads=1) for r in block]
    parallel = [result_rows(r) for block in run_grid(grid, threads=4) for r in block]
    assert serial == parallel


def test_run_grid_skip_resumes_by_scenario():
    grid = FactorialGrid(
        n_clusters=(6, 10),
        sizes=(FixedSize(8),),
        pi0=(0.3,),
        icc=(0.0, 0.1),
        models=(ALL_MODELS[0],),
        estimators=KINDS3,
        replicates=5,
        seed=2026,
    )
    full = list(run_grid(grid, threads=1))
    partial = list(run_grid(grid, threads=1, skip=(0, 1)))
    assert [b[0].scenario.index for b in full] == [0, 1, 2, 3]
    assert [b[0].scenario.index for b in partial] == [2, 3]
    assert result_rows(partial[0][0]) == result_rows(full[2][0])


@pytest.mark.parametrize("threads", [1, 2])
def test_run_grid_skip_drops_exactly_the_listed_cells(threads):
    grid = FactorialGrid(
        n_clusters=(6, 10),
        sizes=(FixedSize(6),),
        pi0=(0.3,),
        icc=(0.0, 0.1),
        models=(ALL_MODELS[-1],),
        estimators=(EstimatorKind.ROBUST,),
        replicates=3,
        seed=2026,
    )
    full = [result_rows(b[0]) for b in run_grid(grid, threads=1)]
    # a one-shot iterator: the skip set must be built once, not per cell
    kept = list(run_grid(grid, threads=threads, skip=iter([3, 1])))
    assert [b[0].scenario.index for b in kept] == [0, 2]
    assert [result_rows(b[0]) for b in kept] == [full[0], full[2]]


def test_progress_callback_reports_in_order():
    grid = FactorialGrid(
        n_clusters=(6,),
        sizes=(FixedSize(6),),
        pi0=(0.3,),
        icc=(0.0, 0.1, 0.2),
        models=(ALL_MODELS[-1],),
        estimators=(EstimatorKind.ROBUST,),
        replicates=4,
        seed=2026,
    )
    seen = []
    for _ in run_grid(grid, threads=2, progress=lambda done, total, idx: seen.append((done, total, idx))):
        pass
    assert seen == [(1, 3, 0), (2, 3, 1), (3, 3, 2)]


def _slow_first_cell_failing_second(scenario, replicate_indices):
    """A generate_block stand-in: cell 1 fails while cell 0 is still being generated."""
    if scenario.index == 1:
        raise RuntimeError("cell 1 failed")
    if scenario.index == 0:
        time.sleep(0.5)
    return crtgee.datagen.generate_block(scenario, replicate_indices)


def _failing_second_cell(scenario, replicate_indices):
    """A generate_block stand-in that fails for cell 1 only."""
    if scenario.index == 1:
        raise RuntimeError("cell 1 failed")
    return crtgee.datagen.generate_block(scenario, replicate_indices)


FAILING_GRID = FactorialGrid(n_clusters=(6,), sizes=(FixedSize(6),), pi0=(0.3,),
                             icc=(0.0, 0.1, 0.2), models=(ALL_MODELS[-1],),
                             estimators=(EstimatorKind.ROBUST,), replicates=1, seed=2026)


def _first_cell_rows():
    sc = FAILING_GRID.scenarios()[0]
    return [result_rows(r) for r in run_scenario(sc, FAILING_GRID.models, FAILING_GRID.estimators)]


def _yielded_before_failure(threads):
    yielded = []
    with pytest.raises(RuntimeError, match="cell 1 failed"):
        for cell in run_grid(FAILING_GRID, threads=threads):
            yielded.append([result_rows(r) for r in cell])
    return yielded


@pytest.mark.parametrize("threads", [1, 2])
def test_run_grid_yields_every_earlier_cell_before_a_failure(monkeypatch, threads):
    # one block per cell: cell 1's block fails while cell 0's is still running
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched generator reaches the workers only through fork")
    cell0 = _first_cell_rows()
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    monkeypatch.setattr(crtgee.simulate, "generate_block", _slow_first_cell_failing_second)
    assert _yielded_before_failure(threads) == [cell0]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_piece_leaves_the_earlier_cells_of_its_block(monkeypatch, threads):
    # all three cells share one block: cell 0 is still fit and yielded
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched generator reaches the workers only through fork")
    cell0 = _first_cell_rows()
    assert len(crtgee.simulate.pack_blocks(FAILING_GRID.scenarios(),
                                           crtgee.simulate.BLOCK_REPLICATES)) == 1
    monkeypatch.setattr(crtgee.simulate, "generate_block", _failing_second_cell)
    assert _yielded_before_failure(threads) == [cell0]


#: the directory where _marked_fit_pieces leaves one file per block it starts
BLOCK_MARKERS = None
_fit_pieces = crtgee.simulate._fit_pieces


def _marked_fit_pieces(pieces, *args, **kwargs):
    """A _fit_pieces stand-in that leaves a marker file per block and takes 0.3 s."""
    (BLOCK_MARKERS / f"block-{pieces[0][0].index}").touch()
    time.sleep(0.3)
    return _fit_pieces(pieces, *args, **kwargs)


def test_stopping_run_grid_early_waits_for_at_most_threads_blocks(monkeypatch, tmp_path):
    # an executor's map would have queued threads + 1 blocks beyond those running
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched fit reaches the workers only through fork")
    threads = 2
    grid = FactorialGrid(n_clusters=(6,), sizes=(FixedSize(4),), pi0=(0.3,),
                         icc=(0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14),
                         models=(ALL_MODELS[-1],), estimators=(EstimatorKind.ROBUST,),
                         replicates=1, seed=2026)
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    monkeypatch.setattr(crtgee.simulate, "_fit_pieces", _marked_fit_pieces)
    monkeypatch.setitem(globals(), "BLOCK_MARKERS", tmp_path)
    cells = run_grid(grid, threads=threads)
    next(cells)
    cells.close()                          # returns once the pool has shut down
    started = sorted(p.name for p in tmp_path.iterdir())
    assert "block-0" in started
    assert len(started) <= 1 + threads, started


def _slow_in_the_caller(pieces, *args, **kwargs):
    """A _fit_pieces stand-in that leaves a marker file per block and takes 0.5 s
    in the calling process only."""
    (BLOCK_MARKERS / f"block-{pieces[0][0].index}").touch()
    if multiprocessing.parent_process() is None:
        time.sleep(0.5)
    return _fit_pieces(pieces, *args, **kwargs)


def test_a_worker_starts_its_next_block_only_once_its_result_is_taken(monkeypatch, tmp_path):
    # the worker's block 1 is fit long before the caller's block 0; block 3
    # must wait until the caller takes block 1's result
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched fit reaches the workers only through fork")
    grid = FactorialGrid(n_clusters=(6,), sizes=(FixedSize(4),), pi0=(0.3,),
                         icc=(0.0, 0.02, 0.04, 0.06, 0.08, 0.1), models=(ALL_MODELS[-1],),
                         estimators=(EstimatorKind.ROBUST,), replicates=1, seed=2026)
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    monkeypatch.setattr(crtgee.simulate, "_fit_pieces", _slow_in_the_caller)
    monkeypatch.setitem(globals(), "BLOCK_MARKERS", tmp_path)
    cells = run_grid(grid, threads=2)
    next(cells)
    started = sorted(p.name for p in tmp_path.iterdir())
    cells.close()
    assert started == ["block-0", "block-1"]


# --- the process layer: block i on process i mod T, the caller being process 0 ---

#: five cells of 4 replicates in blocks of 3: 7 blocks, cells split across processes
STRIDE_GRID = FactorialGrid(n_clusters=(6,), sizes=(FixedSize(4),), pi0=(0.3,),
                            icc=(0.0, 0.05, 0.1, 0.15, 0.2), models=ALL_MODELS[:2],
                            estimators=KINDS3, replicates=4, seed=2026)


def _stride_rows(threads):
    return [[result_rows(r) for r in cell] for cell in run_grid(STRIDE_GRID, threads=threads)]


@pytest.mark.parametrize("start_method", [None, "spawn"], ids=["default", "spawn"])
def test_more_processes_than_cores_on_an_uneven_stride_change_no_row(monkeypatch,
                                                                     start_method):
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 3)
    assert len(crtgee.simulate.pack_blocks(STRIDE_GRID.scenarios(), 3)) == 7
    want = _stride_rows(threads=1)
    if start_method is not None:
        # what macOS and Python 3.14 use: the task and the blocks are pickled
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: get_context(start_method))
    assert _stride_rows(threads=5) == want
    assert multiprocessing.active_children() == []


#: cell 1's gamma sizes sum past one array: generation fails in the worker
#: under any start method, before any uniform is drawn
UNDRAWABLE_GRID = FactorialGrid(n_clusters=(6,), sizes=(FixedSize(4), GammaSize(5e17, 0.5)),
                                pi0=(0.3,), icc=(0.05,), models=(ALL_MODELS[-1],),
                                estimators=(EstimatorKind.ROBUST,), replicates=1, seed=2026)


def _open_fds():
    """The number of this process's open file descriptors, or None where not listed."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("stop", ["complete", "close", "raise"])
def test_no_worker_process_or_pipe_outlives_a_run(monkeypatch, stop):
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    # a first run starts what a start method keeps for later runs (spawn's
    # resource tracker, the forkserver), and its descriptors with it
    _stride_rows(threads=2)
    fds = _open_fds()
    if stop == "complete":
        assert len(_stride_rows(threads=2)) == 5
    elif stop == "close":
        cells = run_grid(STRIDE_GRID, threads=2)
        next(cells)
        cells.close()
    else:
        cells = run_grid(UNDRAWABLE_GRID, threads=2)
        next(cells)
        with pytest.raises(DomainError, match="cannot be drawn as one array") as raised:
            next(cells)
        # the worker's frames come back as the cause
        assert "generate_block" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []
    assert _open_fds() == fds


def _fails_in_a_worker(*args, **kwargs):
    """A fit_block stand-in that raises in a worker process only."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("cell 1 failed")
    return crtgee.gee.fit_block(*args, **kwargs)


@pytest.mark.parametrize("target, stand_in", [
    ("generate_block", _failing_second_cell),       # returned by _fit_pieces
    ("fit_block", _fails_in_a_worker),              # raised through _fit_pieces
], ids=["returned", "raised"])
def test_a_worker_error_carries_the_workers_traceback(monkeypatch, target, stand_in):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches the workers only through fork")
    cell0 = _first_cell_rows()
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    monkeypatch.setattr(crtgee.simulate, target, stand_in)
    yielded = []
    with pytest.raises(RuntimeError, match="cell 1 failed") as raised:
        for cell in run_grid(FAILING_GRID, threads=2):
            yielded.append([result_rows(r) for r in cell])
    assert yielded == [cell0]
    cause = str(raised.value.__cause__)
    assert stand_in.__name__ in cause and "Traceback" in cause
    assert multiprocessing.active_children() == []


def _exits_in_a_worker(*args, **kwargs):
    """A _fit_pieces stand-in with which a worker process exits without a result."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return _fit_pieces(*args, **kwargs)


def _timeout(signum, frame):
    raise TimeoutError("run_grid still waits for a worker that has exited")


def test_a_worker_that_exits_without_a_result_ends_the_run(monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched fit reaches the workers only through fork")
    cell0 = _first_cell_rows()
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    monkeypatch.setattr(crtgee.simulate, "_fit_pieces", _exits_in_a_worker)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    yielded = []
    try:
        with pytest.raises(RuntimeError, match="exited with code 3 before returning block 1"):
            for cell in run_grid(FAILING_GRID, threads=2):
                yielded.append([result_rows(r) for r in cell])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert yielded == [cell0]
    assert multiprocessing.active_children() == []


PACKED_GRID = FactorialGrid(n_clusters=(6, 10, 6), sizes=(FixedSize(4), GammaSize(8, 0.5)),
                            pi0=(0.1, 0.3), icc=(0.05,), replicates=5, seed=11)


def test_pack_blocks_fills_bounded_single_n_blocks_in_grid_order():
    # cells 0-3 and 8-11 have N = 6, cells 4-7 N = 10; two cells are skipped
    scenarios = [sc for sc in PACKED_GRID.scenarios() if sc.index not in (1, 6)]
    blocks = crtgee.simulate.pack_blocks(scenarios, 7)
    assert all(sum(len(reps) for _, reps in b) <= 7 for b in blocks)
    assert all(len({sc.n_clusters for sc, _ in b}) == 1 for b in blocks)
    pieces = [(sc.index, rep) for b in blocks for sc, reps in b for rep in reps]
    assert pieces == [(sc.index, rep) for sc in scenarios for rep in range(sc.replicates)]
    # each run of same-N cells fills its blocks: 15, 15 and 20 replicates
    assert [sum(len(reps) for _, reps in b) for b in blocks] == [7, 7, 1, 7, 7, 1, 7, 7, 6]


@pytest.mark.parametrize("threads", [1, 2])
def test_packing_cells_into_shared_blocks_does_not_change_results(monkeypatch, threads):
    skip = (2, 7)
    cells = [sc for sc in PACKED_GRID.scenarios() if sc.index not in skip]
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    want = [[result_rows(r) for r in run_scenario(sc, ALL_MODELS, ALL_KINDS)] for sc in cells]
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 7)
    got = [[result_rows(r) for r in cell]
           for cell in run_grid(PACKED_GRID, threads=threads, skip=skip)]
    assert got == want


# --- batch invariance: a block of replicates equals each replicate alone ---

BATCH_DESIGNS = {
    "zero-event-arms": (Scenario(n_clusters=6, sizes=FixedSize(10), pi0=0.1, pi1=0.1, icc=0.05,
                                 seed=7), range(30)),
    "size-1-clusters": (Scenario(n_clusters=12, sizes=FixedSize(1), pi0=0.3, pi1=0.3, icc=0.05,
                                 seed=3), range(30)),
    "criterion-9": (Scenario(n_clusters=20, sizes=GammaSize(30, 1.0), pi0=0.3, pi1=0.3,
                             icc=0.05, seed=20260821), range(20)),
    # replicates 10 and 91 run the full budget on an alpha cycle, 154 runs it
    # in most models; the others converge
    "alpha-cycle": (Scenario(n_clusters=12, sizes=GammaSize(20, 0.8), pi0=0.3, pi1=0.3,
                             icc=0.05, seed=7), [*range(12), 91, 154]),
}


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("design", sorted(BATCH_DESIGNS))
def test_block_equals_each_replicate_alone(design):
    sc, reps = BATCH_DESIGNS[design]
    reps = list(reps)
    block = run_block(sc, reps, models=ALL_MODELS, kinds=ALL_KINDS)
    reasons = set()
    for model in ALL_MODELS:
        got = block[model.label()]
        reasons.update(got.reason)
        for row, rep in enumerate(reps):
            alone = run_block(sc, [rep], models=(model,), kinds=ALL_KINDS)[model.label()]
            where = (design, model.label(), rep)
            assert got.reason[row] == alone.reason[0], where
            assert got.iterations[row] == alone.iterations[0], where
            assert bits(got.beta[row]) == bits(alone.beta[0]), where
            assert bits(got.alpha[row]) == bits(alone.alpha[0]), where
            assert bits(got.phi[row]) == bits(alone.phi[0]), where
            assert got.alpha_clamped[row] == alone.alpha_clamped[0], where
            assert bits(got.q_max[row]) == bits(alone.q_max[0]), where
            for kind in ALL_KINDS:
                assert bits(got.se[kind][row]) == bits(alone.se[kind][0]), (where, kind)
                assert got.reject[kind][row] == alone.reject[kind][0], (where, kind)
                assert got.failures[kind][row] == alone.failures[kind][0], (where, kind)
    assert None in reasons
    if design == "alpha-cycle":
        assert "max_iterations" in reasons
        cycle = block["gaussian-identity"]
        assert [cycle.reason[reps.index(r)] for r in (10, 91)] == ["max_iterations"] * 2
    if design == "zero-event-arms":
        assert "empty_arm" in reasons


def test_scenario_results_do_not_depend_on_the_block_size(monkeypatch):
    sc = Scenario(n_clusters=6, sizes=FixedSize(10), pi0=0.1, pi1=0.1, icc=0.05, seed=7,
                  replicates=23)
    want = [result_rows(r) for r in run_scenario(sc, models=ALL_MODELS, kinds=ALL_KINDS)]
    for size in (1, 4, 23):
        monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", size)
        got = [result_rows(r) for r in run_scenario(sc, models=ALL_MODELS, kinds=ALL_KINDS)]
        assert got == want, size
