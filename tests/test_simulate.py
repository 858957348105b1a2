"""Simulation harness: aggregation arithmetic, grid layout, parallel determinism."""

import dataclasses
import itertools
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

import crtgee.datagen
import crtgee.gee
import crtgee.inference
import crtgee.sandwich
import crtgee.simulate

from crtgee import (
    ALL_KINDS,
    ALL_MODELS,
    DomainError,
    EstimatorKind,
    EstimatorSummary,
    Family,
    FactorialGrid,
    FixedSize,
    GammaSize,
    Link,
    ModelBlock,
    ModelSpec,
    Scenario,
    ScenarioResult,
    TYPE1_BAND,
    aggregate,
    result_lines,
    run_block,
    run_grid,
    run_scenario,
)
from crtgee.cli import main
from crtgee.families import link_apply
from crtgee.simulate import RESULT_COLUMNS

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
    ((res,),) = aggregate([(scenario(), slice(None))], ALL_MODELS[:1], records, kinds=(kind,))

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
    ((res,),) = aggregate([(scenario(replicates=50), slice(None))], ALL_MODELS[:1], records,
                          kinds=(kind,))
    assert res.estimators[kind].percent_bias == pytest.approx(10.0, abs=1e-9)


def test_aggregate_handles_zero_convergence():
    records = block([("max_iterations", None, {}) for _ in range(3)], KINDS3)
    ((res,),) = aggregate([(scenario(replicates=3), slice(None))], ALL_MODELS[:1], records,
                          kinds=KINDS3)
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
    ((res,),) = aggregate([(scenario(replicates=2), slice(None))], ALL_MODELS[:1], records,
                          kinds=(kind,))
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
    lines = result_lines(res)
    assert [len(line.split(",")) for line in lines] == [len(RESULT_COLUMNS)] * len(ALL_KINDS)
    rows = [dict(zip(RESULT_COLUMNS, line.split(","))) for line in lines]
    assert [r["estimator"] for r in rows] == [k.value for k in ALL_KINDS]
    for r in rows:
        assert r["scenario_id"] == str(sc.index)
        assert r["n_clusters"] == "10"
        assert r["cluster_size"] == "20.0"
        assert r["cv"] == "0.0"
        assert r["family"] == "binomial"
        assert r["link"] == "log"
        assert r["n_rep"] == "6"
        if r["type1"]:
            assert r["acceptable"] == ("1" if TYPE1_BAND[0] <= float(r["type1"]) <= TYPE1_BAND[1]
                                       else "0")
        else:
            assert r["acceptable"] == ""


def test_result_lines_write_each_cell_as_text():
    # None is an empty cell, a bool 1 or 0, a float its repr and an int its digits
    sc = scenario(replicates=3, pi0=0.1, pi1=0.1)
    kc, md, mbn = EstimatorKind.KC, EstimatorKind.MD, EstimatorKind.MBN
    result = ScenarioResult(
        scenario=sc, model=ModelSpec(Family.POISSON, Link.LOG), n_replicates=3,
        n_converged=2, convergence_rate=2 / 3, esd=0.1 + 0.2,
        estimators={
            kc: EstimatorSummary(kc, 2, 0.25, -12.5, 0, 0.05, True),
            md: EstimatorSummary(md, 2, 1 / 3, 1e-17, 2, 1.0, False),
            mbn: EstimatorSummary(mbn, 0, None, None, 0, None, None),
        },
        diagnostics={},
    )
    fixed = f"{sc.index},10,20.0,0.0,0.1,0.05,poisson,log"
    fit = "3,2,0.6666666666666666,0.30000000000000004"
    assert result_lines(result) == [
        f"{fixed},kc,{fit},0.25,-12.5,0.05,1",
        f"{fixed},md,{fit},0.3333333333333333,1e-17,1.0,0",
        f"{fixed},mbn,{fit},,,,",
    ]


def test_result_lines_write_numpy_scalars_as_python_numbers(tmp_path):
    # a cell of numpy scalars writes the lines of the same cell of Python
    # numbers (numpy 2's repr of np.float64(0.5) is "np.float64(0.5)"), and
    # report reads them
    kw = dict(n_clusters=10, pi0=0.3, pi1=0.3, icc=0.05, replicates=4, seed=2026, index=3)
    plain = Scenario(sizes=GammaSize(10.0, 0.5), **kw)
    typed = Scenario(sizes=GammaSize(np.float64(10.0), np.float64(0.5)),
                     **{k: np.int64(v) if isinstance(v, int) else np.float64(v)
                        for k, v in kw.items()})
    models = (ALL_MODELS[0], ALL_MODELS[-1])
    want = [line for res in run_scenario(plain, models, ALL_KINDS) for line in result_lines(res)]
    got = [line for res in run_scenario(typed, models, ALL_KINDS) for line in result_lines(res)]
    assert got == want

    def numpy_scalars(summary):
        return dataclasses.replace(summary, **{
            f.name: (np.bool_(v) if isinstance(v, bool) else np.int64(v) if isinstance(v, int)
                     else np.float64(v))
            for f in dataclasses.fields(summary)
            if (v := getattr(summary, f.name)) is not None and f.name != "kind"})

    results = [dataclasses.replace(res, n_converged=np.int64(res.n_converged),
                                   convergence_rate=np.float64(res.convergence_rate),
                                   esd=np.float64(res.esd),
                                   estimators={kind: numpy_scalars(summary)
                                               for kind, summary in res.estimators.items()})
               for res in run_scenario(typed, models, ALL_KINDS)]
    assert any(type(s.acceptable) is np.bool_ for s in results[0].estimators.values())
    assert [line for res in results for line in result_lines(res)] == want
    path = tmp_path / "results.csv"
    path.write_text("\n".join([",".join(RESULT_COLUMNS), *want]) + "\n")
    assert main(["report", "--results", str(path), "--by", "cv,pi0,icc"]) == 0


def test_run_grid_parallelism_is_invisible(monkeypatch):
    # 4 blocks of 8 of the grid's 32 replicates, so threads=4 runs 4 processes
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 8)
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
    serial = [result_lines(r) for block in run_grid(grid, threads=1) for r in block]
    parallel = [result_lines(r) for block in run_grid(grid, threads=4) for r in block]
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
    assert result_lines(partial[0][0]) == result_lines(full[2][0])


@pytest.mark.parametrize("threads", [1, 2])
def test_run_grid_skip_drops_exactly_the_listed_cells(monkeypatch, threads):
    # the 6 replicates run are 2 blocks of 3, so threads=2 starts a worker
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 3)
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
    full = [result_lines(b[0]) for b in run_grid(grid, threads=1)]
    # a one-shot iterator: the skip set must be built once, not per cell
    kept = list(run_grid(grid, threads=threads, skip=iter([3, 1])))
    assert [b[0].scenario.index for b in kept] == [0, 2]
    assert [result_lines(b[0]) for b in kept] == [full[0], full[2]]


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


#: the draw of one piece's sizes and uniforms, where the stand-ins below fail a cell
_draw_piece = crtgee.datagen._draw_piece


def _slow_first_cell_failing_second(scenario, replicate_indices):
    """A _draw_piece stand-in: cell 1 fails while cell 0 is still being generated."""
    if scenario.index == 1:
        raise RuntimeError("cell 1 failed")
    if scenario.index == 0:
        time.sleep(0.5)
    return _draw_piece(scenario, replicate_indices)


def _failing_second_cell(scenario, replicate_indices):
    """A _draw_piece stand-in that fails for cell 1 only."""
    if scenario.index == 1:
        raise RuntimeError("cell 1 failed")
    return _draw_piece(scenario, replicate_indices)


FAILING_GRID = FactorialGrid(n_clusters=(6,), sizes=(FixedSize(6),), pi0=(0.3,),
                             icc=(0.0, 0.1, 0.2), models=(ALL_MODELS[-1],),
                             estimators=(EstimatorKind.ROBUST,), replicates=1, seed=2026)


def _first_cell_rows(grid=FAILING_GRID):
    sc = grid.scenarios()[0]
    return [result_lines(r) for r in run_scenario(sc, grid.models, grid.estimators)]


def _yielded_before_failure(threads, grid=FAILING_GRID):
    yielded = []
    with pytest.raises(RuntimeError, match="cell 1 failed"):
        for cell in run_grid(grid, threads=threads):
            yielded.append([result_lines(r) for r in cell])
    return yielded


@pytest.mark.parametrize("threads", [1, 2])
def test_run_grid_yields_every_earlier_cell_before_a_failure(monkeypatch, threads):
    # one block per cell: cell 1's block fails while cell 0's is still running
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched generator reaches the workers only through fork")
    cell0 = _first_cell_rows()
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    monkeypatch.setattr(crtgee.datagen, "_draw_piece", _slow_first_cell_failing_second)
    assert _yielded_before_failure(threads) == [cell0]


def assert_a_failing_piece_leaves_cell_0(monkeypatch, threads, grid):
    """Cell 0 is still fit and yielded when cell 1, in the same block, fails to draw."""
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched generator reaches the workers only through fork")
    cell0 = _first_cell_rows(grid)
    assert len(crtgee.simulate.pack_blocks(grid.scenarios(),
                                           crtgee.simulate.BLOCK_REPLICATES)) == 1
    monkeypatch.setattr(crtgee.datagen, "_draw_piece", _failing_second_cell)
    assert _yielded_before_failure(threads, grid) == [cell0]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_piece_leaves_the_earlier_cells_of_its_block(monkeypatch, threads):
    # all three cells share one block
    assert_a_failing_piece_leaves_cell_0(monkeypatch, threads, FAILING_GRID)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_wider_piece_leaves_the_narrower_cell_before_it(monkeypatch, threads):
    # cell 1 has N = 10, so cell 0 (N = 6) is drawn into a block wider than any trial drawn
    grid = dataclasses.replace(FAILING_GRID, n_clusters=(6, 10), icc=(0.0,))
    assert_a_failing_piece_leaves_cell_0(monkeypatch, threads, grid)


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
    return [[result_lines(r) for r in cell] for cell in run_grid(STRIDE_GRID, threads=threads)]


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
        assert "generate_pieces" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []
    assert _open_fds() == fds


def _fails_in_a_worker(*args, **kwargs):
    """A fit_block stand-in that raises in a worker process only."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("cell 1 failed")
    return crtgee.gee.fit_block(*args, **kwargs)


@pytest.mark.parametrize("module, target, stand_in", [
    (crtgee.datagen, "_draw_piece", _failing_second_cell),      # returned by _fit_pieces
    (crtgee.simulate, "fit_block", _fails_in_a_worker),         # raised through _fit_pieces
], ids=["returned", "raised"])
def test_a_worker_error_carries_the_workers_traceback(monkeypatch, module, target, stand_in):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches the workers only through fork")
    cell0 = _first_cell_rows()
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    monkeypatch.setattr(module, target, stand_in)
    yielded = []
    with pytest.raises(RuntimeError, match="cell 1 failed") as raised:
        for cell in run_grid(FAILING_GRID, threads=2):
            yielded.append([result_lines(r) for r in cell])
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
                yielded.append([result_lines(r) for r in cell])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert yielded == [cell0]
    assert multiprocessing.active_children() == []


PACKED_GRID = FactorialGrid(n_clusters=(6, 10, 6), sizes=(FixedSize(4), GammaSize(8, 0.5)),
                            pi0=(0.1, 0.3), icc=(0.05,), replicates=5, seed=11)


def test_pack_blocks_fills_bounded_blocks_across_n_in_grid_order():
    # cells 0-3 and 8-11 have N = 6, cells 4-7 N = 10; two cells are skipped
    scenarios = [sc for sc in PACKED_GRID.scenarios() if sc.index not in (1, 6)]
    blocks = crtgee.simulate.pack_blocks(scenarios, 7)
    pieces = [(sc.index, rep) for b in blocks for sc, reps in b for rep in reps]
    assert pieces == [(sc.index, rep) for sc in scenarios for rep in range(sc.replicates)]
    # blocks fill across a change of N: 50 replicates are 7 full blocks and 1
    assert [sum(len(reps) for _, reps in b) for b in blocks] == [7] * 7 + [1]
    assert [sorted({sc.n_clusters for sc, _ in b}) for b in blocks] == \
        [[6], [6], [6, 10], [10], [6, 10], [6], [6], [6]]


@pytest.mark.parametrize("threads", [1, 2])
def test_packing_cells_into_shared_blocks_does_not_change_results(monkeypatch, threads):
    skip = (2, 7)
    cells = [sc for sc in PACKED_GRID.scenarios() if sc.index not in skip]
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    want = [[result_lines(r) for r in run_scenario(sc, ALL_MODELS, ALL_KINDS)] for sc in cells]
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 7)
    got = [[result_lines(r) for r in cell]
           for cell in run_grid(PACKED_GRID, threads=threads, skip=skip)]
    assert got == want


#: 4 cells of 12 replicates, most of whose fits converge: each (cell, model)
#: sums at least 9 terms, past where np.sum stops adding in sequence
SHARED_GRID = FactorialGrid(n_clusters=(10,), sizes=(FixedSize(20), GammaSize(15, 0.5)),
                            pi0=(0.3,), icc=(0.05, 0.1), replicates=12, seed=17)


def reference_floats(scenario, models):
    """Per model: esd and, per kind, mean SE and percent bias, summed over the cell alone.

    The sums of the one-cell summary: np.std(ddof=1) of the converged
    beta1, and np.sum over each kind's converged SEs and biases in a fresh
    array, an SE not evaluated entering as 0.
    """
    fitted = run_block(scenario, range(scenario.replicates), models=models, kinds=ALL_KINDS)
    floats = []
    for model in models:
        fits = fitted[model.label()]
        conv = fits.converged
        esd = float(np.std(fits.beta[conv, -1], ddof=1))
        kinds = {}
        for kind in ALL_KINDS:
            se = fits.se[kind][conv]
            n = int(np.count_nonzero(~np.isnan(se)))
            bias = np.where(np.isnan(se), 0.0, (se - esd) / esd * 100.0)
            kinds[kind] = (float(np.where(np.isnan(se), 0.0, se).sum()) / n,
                           float(bias.sum()) / n)
        floats.append((esd, kinds))
    return floats


@pytest.mark.parametrize("threads", [1, 2])
def test_float_sums_of_cells_sharing_a_block_keep_their_bits(monkeypatch, threads):
    # blocks of 24 hold 2 whole cells each, so threads=2 starts a worker; the
    # second cell's runs lie past the first's, where a sum over all the runs
    # at once (np.add.reduceat) adds in another order than np.sum over one
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 1)
    want = [[result_lines(r) for r in cell] for cell in run_grid(SHARED_GRID)]
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 24)
    shared = list(run_grid(SHARED_GRID, threads=threads))
    assert [[result_lines(r) for r in cell] for cell in shared] == want
    for sc, cell in zip(SHARED_GRID.scenarios(), shared):
        assert min(res.n_converged for res in cell) >= 9
        got = [(res.esd, {kind: (s.mean_se, s.percent_bias) for kind, s in res.estimators.items()})
               for res in cell]
        assert got == reference_floats(sc, SHARED_GRID.models), sc.index


def test_aggregate_runs_once_per_block_and_once_per_joined_cell(monkeypatch, tmp_path):
    calls = []
    aggregate = crtgee.simulate.aggregate

    def spy(cells, *args):
        calls.append([sc.index for sc, _ in cells])
        return aggregate(cells, *args)

    monkeypatch.setattr(crtgee.simulate, "aggregate", spy)
    # PACKED_GRID in blocks of 7: one call per block that holds a whole cell
    # (5, one cell each) and one per cell split across blocks (7)
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 7)
    list(run_grid(PACKED_GRID))
    blocks = crtgee.simulate.pack_blocks(PACKED_GRID.scenarios(), 7)
    whole = [b for b in blocks if any(len(reps) == sc.replicates for sc, reps in b)]
    split = {sc.index for b in blocks for sc, reps in b if len(reps) < sc.replicates}
    assert (len(whole), len(split)) == (5, 7)
    assert len(calls) == len(whole) + len(split)
    assert calls == [[i] for i in range(PACKED_GRID.n_scenarios)]
    # the benchmark's 8-cell grid is one block: one call summarizes it all
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 100)
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "seed": 20260821, "replicates": 2, "n_clusters": [6, 10],
        "cluster_sizes": [8, {"type": "gamma", "mean": 10, "cv": 0.5}],
        "pi0": [0.1, 0.3], "icc": [0.05],
        "models": ["binomial-identity", "poisson-identity", "gaussian-identity"],
        "output": str(tmp_path / "results.csv")}))
    calls.clear()
    assert main(["simulate", "--config", str(config)]) == 0
    assert calls == [list(range(8))]


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
    want = [result_lines(r) for r in run_scenario(sc, models=ALL_MODELS, kinds=ALL_KINDS)]
    for size in (1, 4, 23):
        monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", size)
        got = [result_lines(r) for r in run_scenario(sc, models=ALL_MODELS, kinds=ALL_KINDS)]
        assert got == want, size


# --- stacked models: one pass over all working models equals each model alone ---

STACK_DESIGNS = {
    # (scenario, replicates, reasons the working models' fits must show)
    "zero-event-arms": (BATCH_DESIGNS["zero-event-arms"][0], range(30), {"empty_arm"}),
    "alpha-cycle": (*BATCH_DESIGNS["alpha-cycle"], {"max_iterations"}),
    # replicates with an arm of only events: empty under the binomial
    # models, the Poisson start clamp under the Poisson ones, neither under
    # the Gaussian one, whose first row (replicate 6, whose fit the clamp
    # would move) follows the Poisson models' rows
    "all-event-arms": (Scenario(n_clusters=6, sizes=GammaSize(5, 0.8), pi0=0.8, pi1=0.8,
                                icc=0.05, seed=3), [6, 0, 1, 32, 49], {"empty_arm"}),
    # replicate 24 fails the score condition under three models, 274 and 857
    # run the budget out under most, and about half have an arm without events
    "rare-event": (Scenario(n_clusters=8, sizes=GammaSize(10, 1.0), pi0=0.05, pi1=0.05,
                            icc=0.1, seed=5), [*range(8), 24, 274, 857],
                   {"empty_arm", "max_iterations", "score_condition_failed"}),
    # replicate 64's binomial-logit fit exhausts its step halvings
    "step-halving": (Scenario(n_clusters=6, sizes=GammaSize(20, 0.8), pi0=0.5, pi1=0.5,
                              icc=0.3, seed=7), range(60, 70), {"step_halving_exhausted"}),
}

FIT_FIELDS = ("beta", "alpha", "phi", "clamped", "iterations", "m", "s", "w", "u", "h", "W")


def stack_inputs(design):
    sc, reps, reasons = STACK_DESIGNS[design]
    m, s = crtgee.datagen.generate_block(sc, reps)
    return crtgee.datagen.trial_arms(sc.n_clusters), m, s, reasons


def model_fits(fits, k):
    """Model k's fits of a stacked FitBlock, by replicate: (converged fields, errors)."""
    n_rep = fits.n_rep
    mine = fits.rows // n_rep == k
    fields = {name: bits(getattr(fits, name)[mine]) for name in FIT_FIELDS}
    fields["rows"] = (fits.rows[mine] - k * n_rep).tolist()
    errors = {p - k * n_rep: (err.reason, err.iterations,
                              None if err.last_beta is None else bits(err.last_beta))
              for p, err in fits.errors.items() if p // n_rep == k}
    return fields, errors


def model_entries(stacked, k, n_rep):
    """Model k's entries of a stacked ModelBlock, each field as comparable values."""
    got = stacked.take(slice(k * n_rep, (k + 1) * n_rep))
    return {
        "reason": got.reason, "iterations": got.iterations.tolist(), "beta": bits(got.beta),
        "alpha": bits(got.alpha), "phi": bits(got.phi), "q_max": bits(got.q_max),
        "alpha_clamped": got.alpha_clamped.tolist(),
        **{("se", kind): bits(v) for kind, v in got.se.items()},
        **{("reject", kind): v.tolist() for kind, v in got.reject.items()},
        **{("failures", kind): v for kind, v in got.failures.items()},
    }


def fit_models(arm, m, s, models):
    return crtgee.simulate._fit_models(arm, m, s, models, ALL_KINDS,
                                       crtgee.simulate.DEFAULT_FG_BOUND,
                                       crtgee.simulate.ALPHA_LEVEL)


def assert_stack_equals_each_model_alone(arm, m, s, models):
    """fit_block and the estimates and tests of a stack of models equal each model's alone."""
    fits = crtgee.gee.fit_block(arm, m, s, models)
    stacked = fit_models(arm, m, s, models)
    assert fits.models == tuple(models) and len(stacked.reason) == len(models) * len(m)
    reasons = set()
    for k, model in enumerate(models):
        alone = crtgee.gee.fit_block(arm, m, s, (model,))
        assert model_fits(fits, k) == model_fits(alone, 0), model.label()
        assert model_entries(stacked, k, len(m)) == model_entries(
            fit_models(arm, m, s, (model,)), 0, len(m)), model.label()
        reasons.update(err.reason for err in alone.errors.values())
    return reasons


@pytest.mark.parametrize("design", sorted(STACK_DESIGNS))
def test_stacked_models_equal_each_model_alone(design):
    arm, m, s, want = stack_inputs(design)
    for models in (ALL_MODELS, ALL_MODELS[::-1]):
        reasons = assert_stack_equals_each_model_alone(arm, m, s, models)
        assert want <= reasons, reasons


def test_any_subset_of_models_stacks_as_its_models_alone():
    arm, m, s, _ = stack_inputs("rare-event")
    for models in ((ALL_MODELS[2], ALL_MODELS[0]), ALL_MODELS[3:], ALL_MODELS[::2],
                   (ALL_MODELS[5], ALL_MODELS[1], ALL_MODELS[4])):
        assert_stack_equals_each_model_alone(arm, m, s, models)


def test_stacked_models_equal_each_model_alone_with_singular_information(monkeypatch):
    # the control arm of replicates 1 and 4 gets no working information at
    # its starting mean, under every link: those fits fail in their first
    # pass as singular_information, in the stack as alone
    arm, m, s, _ = stack_inputs("alpha-cycle")
    events = np.stack([(s[r] * (arm == 0)).sum() / (m[r] * (arm == 0)).sum() for r in (1, 4)])
    starts = np.concatenate([link_apply(link, events) for link in Link])
    deriv = crtgee.gee.link_mu_deriv

    def no_information_at_start(link, eta):
        d = deriv(link, eta)
        d[np.isin(eta[:, 0], starts), 0] = 0.0
        return d

    monkeypatch.setattr(crtgee.gee, "link_mu_deriv", no_information_at_start)
    reasons = assert_stack_equals_each_model_alone(arm, m, s, ALL_MODELS)
    assert "singular_information" in reasons
    fits = crtgee.gee.fit_block(arm, m, s, ALL_MODELS)
    failed = {(p // fits.n_rep, p % fits.n_rep) for p, err in fits.errors.items()
              if err.reason == "singular_information"}
    assert {r for _, r in failed} == {1, 4}


SANDWICH_KINDS = (EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD, EstimatorKind.FG,
                  EstimatorKind.AVG)


@pytest.mark.parametrize("events, model_based_rejects", [((3, 3, 3, 2, 2, 2), True),
                                                         ((3, 3, 3, 3, 3, 3), False)])
def test_arms_of_one_proportion_have_no_sandwich_variance(events, model_based_rejects):
    # every cluster of an arm has the arm's proportion, so every residual
    # s_i - m_i mu_a is exactly 0 at the fitted means and each sandwich
    # kind's meat is 0: those estimates are degenerate under every model and
    # never reject, while MB and MBN keep phi (MBN's phi_mbn is 1) and
    # reject an arm difference (beta1 is 0 when the arms are equal)
    arm = np.repeat([0, 1], 3)
    m, s = np.full((1, 6), 10), np.array([events])
    got = fit_models(arm, m, s, ALL_MODELS)
    assert got.reason == (None,) * len(ALL_MODELS)
    for kind in SANDWICH_KINDS:
        assert got.failures[kind] == ("DegenerateVarianceError",) * len(ALL_MODELS), kind
        assert not got.reject[kind].any(), kind
    for kind in (EstimatorKind.MB, EstimatorKind.MBN):
        assert got.failures[kind] == (None,) * len(ALL_MODELS), kind
        assert (got.reject[kind] == model_based_rejects).all(), kind
    # so too for every pair of arm proportions a / size and b / size, unequal
    # or equal as in `events`. The fitted means do not give every residual
    # back as 0 (49 (1 / 49) is not 1 under the identity links, and the log
    # and logit links do not return 1 / 10 bit for bit), so the residuals are
    # 0 because the fit sets them so; where the arms are equal beta1 is 0 and
    # nothing rejects
    differ = events[0] != events[-1]
    for size in (7, 10, 49):
        pairs = [(a, b) for a, b in itertools.product(range(1, size), repeat=2)
                 if (a != b) == differ]
        s = np.array([[a] * 3 + [b] * 3 for a, b in pairs])
        got = fit_models(arm, np.full(s.shape, size), s, ALL_MODELS)
        n_fits = len(ALL_MODELS) * len(pairs)
        assert got.reason == (None,) * n_fits, size
        for kind in SANDWICH_KINDS:
            assert got.failures[kind] == ("DegenerateVarianceError",) * n_fits, (size, kind)
            assert not got.reject[kind].any(), (size, kind)
        if not differ:
            assert not (got.reject[EstimatorKind.MB] | got.reject[EstimatorKind.MBN]).any()


def test_identity_links_keep_the_residuals_of_arms_of_one_proportion_at_zero():
    # the same claim for the identity links with each pair of proportions
    # fitted as a block of one replicate: a treated arm's mean is not rebuilt
    # as beta_0 + beta_1 bit for bit, but its residuals are 0 all the same,
    # so robust is degenerate for every pair
    arm, m = np.repeat([0, 1], 3), np.full((1, 6), 10)
    models = [model for model in ALL_MODELS if model.link is Link.IDENTITY]
    for a, b in itertools.product(range(1, 10), repeat=2):
        got = fit_models(arm, m, np.array([[a] * 3 + [b] * 3]), models)
        assert got.reason == (None,) * len(models)
        assert got.failures[EstimatorKind.ROBUST] == ("DegenerateVarianceError",) * len(models), (
            a, b)


def test_aggregate_equals_the_per_kind_path_with_nan_ses():
    # the rare-event design's blocks hold failed fits and NaN SEs: each
    # kind's counts are its own, and its means are np.mean over its
    # evaluated SEs alone (a NaN SE enters the sum as 0 and is not counted;
    # the zeros may move the sum's last bit)
    sc, reps, _ = STACK_DESIGNS["rare-event"]
    fitted = run_block(sc, list(range(40)), models=ALL_MODELS, kinds=ALL_KINDS)
    nan_kinds = set()
    for model in ALL_MODELS:
        got = fitted[model.label()]
        conv = got.converged
        n_conv = int(conv.sum())
        esd = float(np.std(got.beta[conv, -1], ddof=1))
        ((result,),) = aggregate([(sc, slice(None))], (model,), got, ALL_KINDS)
        for kind in ALL_KINDS:
            ses = got.se[kind][conv]
            evaluated = ses[~np.isnan(ses)]
            nan_kinds.update([kind] if evaluated.size < ses.size else [])
            summary = result.estimators[kind]
            rejections = int(got.reject[kind][conv].sum())
            assert (summary.n_eval, summary.rejections) == (evaluated.size, rejections), (
                model.label(), kind)
            assert evaluated.size, (model.label(), kind)
            assert summary.mean_se == pytest.approx(float(np.mean(evaluated)), rel=1e-15, abs=0)
            assert summary.percent_bias == pytest.approx(
                float(np.mean((evaluated - esd) / esd * 100.0)), rel=1e-15, abs=0)
            assert summary.type1_error == rejections / n_conv
    # a block of hand-made NaN SEs, one in MD's row and none in KC's
    records = [(None, 0.1, {EstimatorKind.KC: (0.2, False), EstimatorKind.MD: (0.3, True)}),
               (None, -0.2, {EstimatorKind.KC: (0.25, True), EstimatorKind.MD: "SingularityError"}),
               ("empty_arm", None, {}),
               (None, 0.05, {EstimatorKind.KC: (0.1 / 3, False), EstimatorKind.MD: (0.7, False)})]
    kinds = (EstimatorKind.KC, EstimatorKind.MD)
    ((result,),) = aggregate([(scenario(), slice(None))], ALL_MODELS[:1], block(records, kinds),
                             kinds)
    kc, md = result.estimators[EstimatorKind.KC], result.estimators[EstimatorKind.MD]
    assert (kc.n_eval, md.n_eval) == (3, 2)
    assert md.mean_se == 0.5 and kc.mean_se == float(np.mean([0.2, 0.25, 0.1 / 3]))
    assert nan_kinds


# --- one summary pass per cell: every model's summary equals the model summarized alone ---

def exact(value):
    """A result as comparable data: dataclasses and dicts as their items in order, floats as bits."""
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [(exact(k), exact(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, float):
        return ("float", bits([value])[0])
    return value


#: cells of the rare-event replicates [0..11, 24, 274, 857], as slices of the block
SUMMARY_CELLS = {
    "empty arms, every binomial and Poisson model at n_conv 0": slice(7, 12),
    "n_conv 1 and 0, empty_arm, score_condition_failed, max_iterations": slice(11, 14),
    "max_iterations only": slice(13, 15),
    "a NaN SE": slice(4, 7),
    "the whole block": slice(0, 15),
}


def test_stacked_summary_equals_each_model_summarized_alone():
    sc, reps, _ = STACK_DESIGNS["rare-event"]
    arm, m, s, _ = stack_inputs("rare-event")
    stacked = fit_models(arm, m, s, ALL_MODELS)
    alone = [fit_models(arm, m, s, (model,)) for model in ALL_MODELS]
    seen = {"n_conv": set(), "nonconvergence": set(), "nan_se": False}
    for cell, rows in SUMMARY_CELLS.items():
        (got,) = aggregate([(sc, rows)], ALL_MODELS, stacked, ALL_KINDS)
        assert [r.model for r in got] == list(ALL_MODELS)
        for k, model in enumerate(ALL_MODELS):
            ((want,),) = aggregate([(sc, rows)], (model,), alone[k], ALL_KINDS)
            assert exact(got[k]) == exact(want), (cell, model.label())
            seen["n_conv"].add(want.n_converged)
            seen["nonconvergence"].update(want.diagnostics["nonconvergence"])
            seen["nan_se"] |= any(e.n_eval < want.n_converged for e in want.estimators.values())
    assert {0, 1} <= seen["n_conv"]
    assert {"empty_arm", "max_iterations"} <= seen["nonconvergence"]
    assert seen["nan_se"]


def test_stacked_summary_of_cells_split_across_blocks_equals_each_model_alone(monkeypatch):
    # two cells of BLOCK_REPLICATES + 10 replicates: blocks [cell 0], [cell 0, cell 1],
    # [cell 1], so each cell joins two pieces, one of them part of a shared block
    size = crtgee.simulate.BLOCK_REPLICATES
    grid = FactorialGrid(n_clusters=(8,), sizes=(GammaSize(10, 1.0),), pi0=(0.05,),
                         icc=(0.1, 0.05), replicates=size + 10, seed=5)
    blocks = crtgee.simulate.pack_blocks(grid.scenarios(), size)
    assert [[(sc.index, len(reps)) for sc, reps in b] for b in blocks] == [
        [(0, size)], [(0, 10), (1, size - 10)], [(1, 20)]]
    stacked = list(run_grid(grid))
    assert [res.n_replicates for cell in stacked for res in cell] == [size + 10] * 12
    for k, model in enumerate(ALL_MODELS):
        alone = list(run_grid(dataclasses.replace(grid, models=(model,))))
        assert [exact(cell[k]) for cell in stacked] == [exact(cell[0]) for cell in alone], \
            model.label()
    reasons = {r for cell in stacked for res in cell for r in res.diagnostics["nonconvergence"]}
    assert {"empty_arm", "max_iterations"} <= reasons
    # and equals the grid in one block, where no cell is joined
    monkeypatch.setattr(crtgee.simulate, "BLOCK_REPLICATES", 2 * (size + 10))
    assert exact(list(run_grid(grid))) == exact(stacked)


# --- blocks across N: a trial laid into a wider block equals the trial alone ---

def fit_pieces(pieces, models=ALL_MODELS):
    """Each piece's ModelBlock (every model, stacked) from one `_fit_pieces` call."""
    fitted, error = crtgee.simulate._fit_pieces(pieces, models, ALL_KINDS,
                                                crtgee.simulate.DEFAULT_FG_BOUND,
                                                crtgee.simulate.ALPHA_LEVEL)
    assert error is None and len(fitted) == len(pieces)
    return [ModelBlock.join([part], len(models)) for part in fitted]


MIXED_BLOCKS = {
    # (pieces of one block, reasons their fits must show)
    "empty-arm-cycle-size-1": ([
        BATCH_DESIGNS["zero-event-arms"],                       # N = 6, some arms empty
        (BATCH_DESIGNS["alpha-cycle"][0], [10, 91, 154, 0, 1]),  # N = 12, max_iterations
        (Scenario(n_clusters=8, sizes=FixedSize(1), pi0=0.3, pi1=0.3, icc=0.05, seed=3),
         range(20)),                                            # size-1 clusters
    ], {"empty_arm", "max_iterations"}),
    # N = 6 on both sides of an N = 20 piece: a step-halving failure, then arms of
    # only events (empty under the binomial models, the start clamp under Poisson)
    "step-halving-all-event": ([
        STACK_DESIGNS["step-halving"][:2],
        (BATCH_DESIGNS["criterion-9"][0], range(5)),
        STACK_DESIGNS["all-event-arms"][:2],
    ], {"step_halving_exhausted", "empty_arm"}),
    # MBN's delta_N is capped at 0.5 at N = 4 and 2 / 18 at N = 20, and the t
    # reference has 2 and 18 degrees of freedom; the N = 12 trials' 6 treated
    # clusters sit past 4 padding columns, where a sum over all 20 columns would
    # associate them differently
    "mbn-4-beside-20": ([
        (Scenario(n_clusters=4, sizes=GammaSize(10, 0.5), pi0=0.3, pi1=0.3, icc=0.05, seed=4),
         range(40)),
        (BATCH_DESIGNS["criterion-9"][0], range(10)),
        (BATCH_DESIGNS["alpha-cycle"][0], range(20, 40)),
    ], set()),
}


@pytest.mark.parametrize("design", sorted(MIXED_BLOCKS))
def test_a_block_across_n_equals_each_cell_alone(design):
    pieces, want = MIXED_BLOCKS[design]
    assert len({sc.n_clusters for sc, _ in pieces}) > 1
    reasons = set()
    for (sc, reps), got in zip(pieces, fit_pieces(pieces)):
        (alone,) = fit_pieces([(sc, reps)])
        for k, model in enumerate(ALL_MODELS):
            where = (design, sc.n_clusters, model.label())
            assert model_entries(got, k, len(reps)) == model_entries(alone, k, len(reps)), where
        reasons.update(alone.reason)
    assert want <= reasons, reasons


def test_the_t_reference_follows_each_trials_n_in_a_block_across_n():
    # some N = 4 fits have |t| between t_2 and t_18's critical values
    pieces, _ = MIXED_BLOCKS["mbn-4-beside-20"]
    narrow = fit_pieces(pieces)[0]
    t = np.abs(narrow.beta[:, 1] / narrow.se[EstimatorKind.ROBUST])
    assert ((t > 2.2) & (t < 4.3)).any()
    assert not narrow.reject[EstimatorKind.ROBUST][t < 4.3].any()


def estimates_by_fit(arm, m, s, fg_bound):
    """{(model, replicate): reason, or each kind's (covariance bits, error name)}."""
    fits = crtgee.gee.fit_block(arm, m, s, ALL_MODELS)
    covs, _, errors = crtgee.sandwich.estimate_block(fits, ALL_KINDS, fg_bound)
    out = {divmod(p, len(m)): err.reason for p, err in fits.errors.items()}
    for i, p in enumerate(fits.rows.tolist()):
        out[divmod(p, len(m))] = {kind: (bits(covs[kind][i].ravel()),
                                         type(errors[kind].get(i)).__name__) for kind in ALL_KINDS}
    return out


def test_estimator_failures_in_a_block_across_n_equal_each_trial_alone():
    # N = 2: each arm's one cluster has leverage 1, so with the FG bound at 1 FG is
    # singular, as KC and MD are, and MBN needs more than 2 clusters
    pieces = [(Scenario(n_clusters=2, sizes=FixedSize(6), pi0=0.4, pi1=0.4, icc=0.05, seed=1),
               range(8)), (BATCH_DESIGNS["criterion-9"][0], range(4))]
    m, s, error = crtgee.datagen.generate_pieces(pieces)
    assert error is None and m.shape == (12, 20)
    got = estimates_by_fit(crtgee.datagen.trial_arms(20), m, s, 1.0)
    failures = set()
    row = 0
    for sc, reps in pieces:
        for rep in reps:
            alone = estimates_by_fit(crtgee.datagen.trial_arms(sc.n_clusters),
                                     *crtgee.datagen.generate_block(sc, [rep]), 1.0)
            for k in range(len(ALL_MODELS)):
                assert got[k, row] == alone[k, 0], (sc.n_clusters, rep, k)
                if isinstance(alone[k, 0], dict):
                    failures.update((kind, name) for kind, (_, name) in alone[k, 0].items())
            row += 1
    assert {(EstimatorKind.FG, "CorrectionSingularityError"),
            (EstimatorKind.MBN, "UnsupportedDesignError")} <= failures


def test_a_narrow_trials_sums_keep_their_association_in_a_wider_block():
    # cell 23 (N = 8) shares its second block with cell 24 (N = 10); its padding
    # columns add only trailing zeros to each arm's sums, so replicate 21 fits
    # bit for bit as alone (summing its clusters from an F-ordered gather,
    # x[:, cols], once moved its binomial-log beta1 to 0.2522147203257484)
    grid = FactorialGrid(n_clusters=(4, 6, 8, 10, 20), sizes=(FixedSize(3), GammaSize(10, 1.0)),
                         pi0=(0.05, 0.3), icc=(0.01, 0.1), replicates=60, seed=11)
    cells = grid.scenarios()
    (block,) = [b for b in crtgee.simulate.pack_blocks(cells, crtgee.simulate.BLOCK_REPLICATES)
                if (cells[23], range(20, 60)) in b]
    assert [(sc.index, sc.n_clusters) for sc, _ in block] == [(23, 8), (24, 10)]
    got = fit_pieces(block)[0]
    alone = run_block(cells[23], [21])["binomial-log"]
    assert ALL_MODELS[0].label() == "binomial-log"
    assert bits(got.beta[1]) == bits(alone.beta[0])
    assert got.beta[1, 1] == 0.2522147203257483


def test_a_block_finds_one_t_quantile_per_distinct_n(monkeypatch):
    # three pieces of N = 4, 20 and 12: every kind's tests share three quantiles
    pieces, _ = MIXED_BLOCKS["mbn-4-beside-20"]
    found = []
    quantile = crtgee.inference.student_t_quantile
    monkeypatch.setattr(crtgee.inference, "student_t_quantile",
                        lambda p, df: found.append(df) or quantile(p, df))
    fit_pieces(pieces)
    assert sorted(found) == [2, 10, 18]


def test_a_block_of_no_replicates_is_empty():
    blocks = run_block(scenario(), [], models=ALL_MODELS, kinds=ALL_KINDS)
    assert list(blocks) == [model.label() for model in ALL_MODELS]
    for got in blocks.values():
        assert got.reason == () and got.beta.shape == (0, 2)
        assert all(got.se[kind].shape == (0,) and got.failures[kind] == () for kind in ALL_KINDS)
