"""Command-line interface: analyze, simulate, report, and their failure modes."""

import codecs
import csv
import hashlib
import json
import locale
import math

import numpy as np
import pytest

from crtgee import (
    EstimatorKind,
    Family,
    FixedSize,
    Link,
    ModelSpec,
    Scenario,
    compute_estimates,
    fit_gee,
    generate_trial,
    wald_inference,
)
import crtgee.cli
import crtgee.datagen
import crtgee.simulate
from crtgee.cli import main, read_trial_csv, parse_grid_config, THREADS_ENV_VAR


def write_trial_csv(path, clusters):
    """clusters: list of (cluster_id, arm, [outcomes])."""
    lines = ["cluster_id,arm,outcome"]
    for cid, arm, ys in clusters:
        for y in ys:
            lines.append(f"{cid},{arm},{y}")
    path.write_text("\n".join(lines) + "\n")


SMALL_TRIAL = [
    ("c1", 0, [1, 1, 0, 1, 1]),
    ("c2", 0, [0, 0, 0, 0]),
    ("c3", 0, [1, 0, 0, 0, 0, 0]),
    ("c4", 1, [1, 1, 1, 0]),
    ("c5", 1, [0, 0, 1, 0, 0]),
    ("c6", 1, [1, 1, 1]),
]


def run_analyze(tmp_path, trial=SMALL_TRIAL, extra=(), out_name="report.json",
                family="binomial", link="log"):
    data = tmp_path / "trial.csv"
    out = tmp_path / out_name
    write_trial_csv(data, trial)
    code = main(
        ["analyze", "--data", str(data), "--family", family, "--link", link,
         "--out", str(out), *extra]
    )
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_analyze_happy_path(tmp_path):
    code, doc = run_analyze(tmp_path)
    assert code == 0
    assert doc["command"] == "analyze"
    assert doc["data"]["n_clusters"] == 6
    assert doc["data"]["arms"]["0"]["n_clusters"] == 3
    assert doc["model"] == {"family": "binomial", "link": "log", "effect_measure": "rr"}
    assert doc["fit"]["converged"] is True
    assert len(doc["fit"]["beta"]) == 2
    assert 0.0 <= doc["fit"]["icc"] < 1.0
    assert set(doc["estimates"]) == {"mb", "robust", "kc", "md", "fg", "mbn", "avg"}
    rob = doc["estimates"]["robust"]
    assert rob["df"] == 4
    assert rob["effect_measure"] == "rr"
    assert rob["ci_link"][0] < doc["fit"]["beta"][1] < rob["ci_link"][1]
    assert rob["estimate_effect"] == pytest.approx(math.exp(rob["estimate_link"]), rel=1e-15)


def test_analyze_matches_library_exactly(tmp_path):
    # the report serializes at full precision: values must round-trip to
    # the in-process results bit for bit
    code, doc = run_analyze(tmp_path)
    assert code == 0
    data = read_trial_csv(str(tmp_path / "trial.csv"))
    fit = fit_gee(data, ModelSpec(Family.BINOMIAL, Link.LOG))
    assert doc["fit"]["beta"] == [float(b) for b in fit.beta]
    assert doc["fit"]["icc"] == fit.alpha_hat
    assert doc["fit"]["dispersion"] == fit.phi_hat
    var = compute_estimates(fit, (EstimatorKind.ROBUST,))[EstimatorKind.ROBUST]
    res = wald_inference(fit, var, alpha_level=0.05)
    rob = doc["estimates"]["robust"]
    assert rob["se"] == res.se
    assert rob["p"] == res.p_value
    assert rob["ci_link"] == list(res.ci_link)


def test_analyze_round_trip_is_deterministic(tmp_path):
    _, doc1 = run_analyze(tmp_path, out_name="a.json")
    _, doc2 = run_analyze(tmp_path, out_name="b.json")
    assert doc1 == doc2


def test_analyze_identical_arms_zero_effect(tmp_path):
    # both arms carry the same outcome data: beta1 = 0 and p = 1
    trial = [
        ("a1", 0, [1, 1]),
        ("a2", 0, [0, 0]),
        ("b1", 1, [1, 1]),
        ("b2", 1, [0, 0]),
    ]
    code, doc = run_analyze(tmp_path, trial=trial, link="logit")
    assert code == 0
    assert doc["fit"]["beta"][1] == pytest.approx(0.0, abs=1e-10)
    rob = doc["estimates"]["robust"]
    assert rob["p"] == pytest.approx(1.0, abs=1e-9)
    assert rob["estimate_effect"] == pytest.approx(1.0, abs=1e-10)


def test_analyze_avg_is_mean_of_kc_md_squares(tmp_path):
    code, doc = run_analyze(tmp_path, extra=("--corrections", "kc,md,avg"))
    assert code == 0
    assert list(doc["estimates"]) == ["kc", "md", "avg"]
    kc = doc["estimates"]["kc"]["se"]
    md = doc["estimates"]["md"]["se"]
    av = doc["estimates"]["avg"]["se"]
    assert av**2 == pytest.approx((kc**2 + md**2) / 2.0, rel=1e-12)


def test_analyze_level_flag(tmp_path):
    _, doc95 = run_analyze(tmp_path, out_name="a.json")
    _, doc99 = run_analyze(tmp_path, extra=("--level", "0.99"), out_name="b.json")
    w95 = doc95["estimates"]["robust"]["ci_link"]
    w99 = doc99["estimates"]["robust"]["ci_link"]
    assert w99[0] < w95[0] and w95[1] < w99[1]
    code, _ = run_analyze(tmp_path, extra=("--level", "1.5"))
    assert code == 1


def test_analyze_z_test_flag(tmp_path):
    _, doc = run_analyze(tmp_path, extra=("--z-test",))
    rob = doc["estimates"]["robust"]
    assert rob["z_p"] == pytest.approx(math.erfc(abs(rob["t"]) / math.sqrt(2)), rel=1e-12)
    # the z reference is anti-conservative relative to t with 4 df
    assert rob["z_p"] < rob["p"]
    _, plain = run_analyze(tmp_path, out_name="plain.json")
    assert "z_p" not in plain["estimates"]["robust"]


def test_analyze_unknown_estimator(tmp_path, capsys):
    code, _ = run_analyze(tmp_path, extra=("--corrections", "kc,bogus"))
    assert code == 1
    err = capsys.readouterr().err
    assert "bogus" in err
    assert "robust" in err  # lists the valid names


def test_analyze_shuffled_rows_equal_estimates(tmp_path):
    rng = np.random.default_rng(5)
    rows = [(cid, arm, [y]) for cid, arm, ys in SMALL_TRIAL for y in ys]
    shuffled = [rows[k] for k in rng.permutation(len(rows))]
    _, doc1 = run_analyze(tmp_path, out_name="a.json")
    _, doc2 = run_analyze(tmp_path, trial=shuffled, out_name="b.json")
    for kind in doc1["estimates"]:
        a = doc1["estimates"][kind]
        b = doc2["estimates"][kind]
        assert b["se"] == pytest.approx(a["se"], rel=1e-12)
        assert b["p"] == pytest.approx(a["p"], rel=1e-12)
        assert b["estimate_link"] == pytest.approx(a["estimate_link"], rel=1e-12)


def test_analyze_nonconvergence_exit_2_with_report(tmp_path):
    # zero events in one arm leave the log link no solution; the report
    # must still be written, flagged unconverged, with exit code 2
    trial = [
        ("a1", 0, [0, 0, 0, 0]),
        ("a2", 0, [0, 0, 0]),
        ("b1", 1, [1, 0, 1, 0]),
        ("b2", 1, [1, 1, 0]),
    ]
    code, doc = run_analyze(tmp_path, trial=trial)
    assert code == 2
    assert doc["fit"]["converged"] is False
    assert doc["fit"]["reason"] == "empty_arm"
    assert doc["fit"]["iterations"] == 0
    assert doc["fit"]["last_beta"] is None
    assert doc["estimates"] == {}


def test_analyze_writes_saturated_limit_as_null(tmp_path):
    # three clusters leave one degree of freedom; at level 0.9999 its t
    # critical value (about 6366) puts the model-based upper limit of the
    # risk ratio past the float range
    trial = [
        ("a1", 0, [1, 1] + [0] * 8),
        ("a2", 0, [1, 1, 1] + [0] * 9),
        ("b1", 1, [1, 1, 1, 1] + [0] * 6),
    ]
    code, _ = run_analyze(tmp_path, trial=trial, family="poisson",
                          extra=("--corrections", "mb", "--level", "0.9999"))
    assert code == 0

    def reject_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (tmp_path / "report.json").read_text()
    doc = json.loads(text, parse_constant=reject_constant)
    mb = doc["estimates"]["mb"]
    assert mb["ci_link"][1] > 710.0
    assert mb["ci_effect"][0] == math.exp(mb["ci_link"][0])
    assert mb["ci_effect"][1] is None
    assert math.isfinite(mb["estimate_effect"])


def test_analyze_csv_errors_carry_line_numbers(tmp_path, capsys):
    data = tmp_path / "bad.csv"

    data.write_text("cluster,arm,outcome\nc1,0,1\n")
    assert main(["analyze", "--data", str(data), "--family", "binomial", "--link", "log"]) == 1
    assert "line 1" in capsys.readouterr().err

    data.write_text("cluster_id,arm,outcome\nc1,0,1\nc1,2,0\n")
    assert main(["analyze", "--data", str(data), "--family", "binomial", "--link", "log"]) == 1
    assert "line 3" in capsys.readouterr().err

    data.write_text("cluster_id,arm,outcome\nc1,0,1\nc1,0\n")
    assert main(["analyze", "--data", str(data), "--family", "binomial", "--link", "log"]) == 1
    assert "line 3" in capsys.readouterr().err

    data.write_text("cluster_id,arm,outcome\nc1,0,1\nc2,1,0\nc1,1,1\n")
    assert main(["analyze", "--data", str(data), "--family", "binomial", "--link", "log"]) == 1
    err = capsys.readouterr().err
    assert "line 4" in err and "both arms" in err


def analyze_error(data, capsys):
    """Run analyze on `data`, which must fail: its one stderr line, without a traceback."""
    assert main(["analyze", "--data", str(data), "--family", "binomial", "--link", "log"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err.rstrip("\n")


#: files are read in the locale's encoding; in UTF-8 no byte 0xff can be decoded
ENCODING = locale.getpreferredencoding(False)
needs_utf8 = pytest.mark.skipif(codecs.lookup(ENCODING).name != "utf-8",
                                reason="needs a UTF-8 locale")


@needs_utf8
def test_analyze_names_the_line_of_a_byte_it_cannot_decode_in_a_plain_file(tmp_path, capsys):
    # line 2 outlasts the text reader's first 8 KiB chunk, so the byte on
    # line 3 is decoded by the scan of plain blocks, not by the header read
    data = tmp_path / "bad.csv"
    data.write_bytes(b"cluster_id,arm,outcome\n" + b"c" * 9000 + b",0,1\nc\xff,1,0\nc2,1,1\n")
    assert analyze_error(data, capsys) == (
        f"error: {data}: line 3: cannot decode byte 0xff as {ENCODING}")


@needs_utf8
def test_analyze_names_the_line_of_a_byte_it_cannot_decode_in_a_quoted_file(tmp_path, capsys):
    # quoted cells leave the file to csv.reader, which decodes the byte
    # thousands of lines after the text the scan read
    lines = [b"cluster_id,arm,outcome", *(b'"c%d",%d,1' % (i % 10, i % 2) for i in range(4000))]
    lines[3000] = b'"c\xff",1,0'
    data = tmp_path / "bad.csv"
    data.write_bytes(b"\n".join(lines) + b"\n")
    assert analyze_error(data, capsys) == (
        f"error: {data}: line 3001: cannot decode byte 0xff as {ENCODING}")


@pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
def test_analyze_names_the_line_of_a_cell_past_the_csv_field_limit(tmp_path, capsys, quote):
    data = tmp_path / "bad.csv"
    data.write_text(f"cluster_id,arm,outcome\nc1,0,1\n{quote}{'c' * 200_000}{quote},1,0\n")
    assert analyze_error(data, capsys) == (
        f"error: {data}: line 3: field larger than field limit ({csv.field_size_limit()})")


def test_analyze_single_arm_exit_1(tmp_path, capsys):
    data = tmp_path / "one_arm.csv"
    write_trial_csv(data, [("c1", 0, [1, 0]), ("c2", 0, [0, 1])])
    assert main(["analyze", "--data", str(data), "--family", "binomial", "--link", "log"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", "--data", str(tmp_path / "nope.csv"),
                 "--family", "binomial", "--link", "log"]) == 1
    assert "error:" in capsys.readouterr().err


def base_config(tmp_path, **overrides):
    doc = {
        "seed": 2026,
        "replicates": 8,
        "n_clusters": [6, 10],
        "cluster_sizes": [8],
        "pi0": [0.3],
        "icc": [0.0, 0.1],
        "models": ["binomial-logit", "gaussian-identity"],
        "estimators": ["robust", "kc", "md"],
        "output": str(tmp_path / "results.csv"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


def read_results_lines(path):
    return path.read_text().splitlines()


def test_simulate_row_bookkeeping(tmp_path):
    config, doc = base_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    lines = read_results_lines(tmp_path / "results.csv")
    assert lines[0] == ("scenario_id,n_clusters,cluster_size,cv,pi0,icc,family,link,"
                        "estimator,n_rep,n_conv,conv_rate,esd,mean_se,pct_bias,type1,acceptable")
    # 4 scenarios x 2 models x 3 estimators
    assert len(lines) == 1 + 4 * 2 * 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "6"
    assert first[8] == "robust"
    assert first[9] == "8"


def test_simulate_seven_rows_per_model_by_default(tmp_path):
    config, doc = base_config(
        tmp_path, n_clusters=[6], icc=[0.05], models=["gaussian-identity"], replicates=10,
    )
    # default estimators cover all seven kinds
    doc.pop("estimators")
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 0
    lines = read_results_lines(tmp_path / "results.csv")
    assert len(lines) == 1 + 7
    assert [ln.split(",")[8] for ln in lines[1:]] == ["mb", "robust", "kc", "md", "fg", "mbn", "avg"]


def test_simulate_rerun_same_checksum(tmp_path):
    config, _ = base_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    digest1 = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert main(["simulate", "--config", str(config)]) == 0
    digest2 = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest1 == digest2


def test_simulate_threads_do_not_change_bytes(tmp_path):
    config, _ = base_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--threads", "1"]) == 0
    serial = (tmp_path / "results.csv").read_bytes()
    assert main(["simulate", "--config", str(config), "--threads", "3"]) == 0
    parallel = (tmp_path / "results.csv").read_bytes()
    assert serial == parallel


def test_simulate_threads_env_var(tmp_path, monkeypatch):
    config, _ = base_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--threads", "1"]) == 0
    want = (tmp_path / "results.csv").read_bytes()
    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    assert main(["simulate", "--config", str(config)]) == 0
    assert (tmp_path / "results.csv").read_bytes() == want
    monkeypatch.setenv(THREADS_ENV_VAR, "zero")
    assert main(["simulate", "--config", str(config)]) == 1


def test_simulate_resume_reproduces_full_run(tmp_path):
    config, _ = base_config(tmp_path)
    out = tmp_path / "results.csv"
    assert main(["simulate", "--config", str(config)]) == 0
    full = out.read_bytes()

    # keep the header, scenario 0 complete, and a torn scenario-1 line
    lines = full.decode().splitlines()
    torn = lines[: 1 + 6] + [lines[7][: len(lines[7]) // 2]]
    out.write_text("\n".join(torn) + "\n")
    assert main(["simulate", "--config", str(config), "--resume"]) == 0
    assert out.read_bytes() == full


def test_simulate_interrupted_resume_keeps_finished_scenarios(tmp_path, monkeypatch):
    config, _ = base_config(tmp_path)
    out = tmp_path / "results.csv"
    assert main(["simulate", "--config", str(config)]) == 0
    full = out.read_bytes()

    # scenarios 2 and 3 finished; a resumed run computes scenario 0, then
    # crashes before scenario 1
    lines = full.decode().splitlines()
    finished = lines[1 + 2 * 6:]
    out.write_text("\n".join([lines[0], *finished]) + "\n")

    real_run_grid = crtgee.cli.run_grid

    def crash_after_first(*args, **kwargs):
        results = real_run_grid(*args, **kwargs)
        yield next(results)
        raise RuntimeError("interrupted")

    monkeypatch.setattr(crtgee.cli, "run_grid", crash_after_first)
    with pytest.raises(RuntimeError, match="interrupted"):
        main(["simulate", "--config", str(config), "--resume"])
    on_disk = out.read_text().splitlines()
    assert set(finished) <= set(on_disk)
    assert set(lines[1:7]) <= set(on_disk)   # scenario 0, computed before the crash

    # a write torn inside the last field still splits into a full row;
    # without its newline it must not count as finished
    text = out.read_text()
    out.write_text(text[: text.rstrip("\n").rfind(",") + 1])

    monkeypatch.setattr(crtgee.cli, "run_grid", real_run_grid)
    assert main(["simulate", "--config", str(config), "--resume"]) == 0
    assert out.read_bytes() == full


def test_simulate_resume_rejects_foreign_schema(tmp_path, capsys):
    config, _ = base_config(tmp_path)
    out = tmp_path / "results.csv"
    out.write_text("something,else\n1,2\n")
    assert main(["simulate", "--config", str(config), "--resume"]) == 1
    assert "schema" in capsys.readouterr().err


def test_simulate_unknown_config_key(tmp_path, capsys):
    config, _ = base_config(tmp_path, typo_key=[1])
    assert main(["simulate", "--config", str(config)]) == 1
    assert "typo_key" in capsys.readouterr().err


def test_simulate_invalid_values_named(tmp_path, capsys):
    config, _ = base_config(tmp_path, pi0=[0.0])
    assert main(["simulate", "--config", str(config)]) == 1
    assert "pi0" in capsys.readouterr().err

    config, _ = base_config(tmp_path, n_clusters=[7])
    assert main(["simulate", "--config", str(config)]) == 1
    assert "n_clusters" in capsys.readouterr().err

    config, _ = base_config(tmp_path, models=["binomial-probit"])
    assert main(["simulate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "models" in err and "probit" in err

    config, _ = base_config(tmp_path, replicates=0)
    assert main(["simulate", "--config", str(config)]) == 1
    assert "replicates" in capsys.readouterr().err


def test_simulate_rejects_fewer_than_4_clusters_before_any_work(tmp_path, capsys, monkeypatch):
    # N = 2 leaves t with 0 degrees of freedom: the grid must be refused
    # when it is built, not after a cell has been generated and fit
    def never(*args, **kwargs):
        raise AssertionError("generate_block called for a grid that should be rejected")

    monkeypatch.setattr(crtgee.simulate, "generate_block", never)
    config, _ = base_config(tmp_path, n_clusters=[6, 2])
    assert main(["simulate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "n_clusters" in err and "got 2" in err
    assert not (tmp_path / "results.csv").exists()


def test_simulate_config_missing_required_key(tmp_path, capsys):
    config, doc = base_config(tmp_path)
    doc.pop("n_clusters")
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 1
    assert "n_clusters" in capsys.readouterr().err


def test_simulate_bad_json(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    assert main(["simulate", "--config", str(config)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_config_size_entries(tmp_path):
    config, _ = base_config(
        tmp_path,
        cluster_sizes=[10, {"type": "gamma", "mean": 30, "cv": 0.5}, {"type": "fixed", "m": 4}],
    )
    grid, out, threads = parse_grid_config(json.loads(config.read_text()))
    assert grid.sizes[0].m == 10
    assert grid.sizes[1].mean_size == 30.0 and grid.sizes[1].cv == 0.5
    assert grid.sizes[2].m == 4
    assert threads is None

    bad = {"type": "gamma", "mean": 30, "cv": 0.5, "bogus": 1}
    config2, _ = base_config(tmp_path, cluster_sizes=[bad])
    with pytest.raises(Exception) as exc:
        parse_grid_config(json.loads(config2.read_text()))
    assert "bogus" in str(exc.value)


@pytest.mark.parametrize("entry", [
    8.7,
    float("inf"),
    float("-inf"),
    float("nan"),
    {"type": "gamma", "mean": float("nan"), "cv": 0.5},
    {"type": "gamma", "mean": float("inf"), "cv": 0.5},
    {"type": "gamma", "mean": 10, "cv": float("nan")},
    {"type": "gamma", "mean": 10, "cv": float("inf")},
], ids=["fractional", "inf", "minus-inf", "nan", "gamma-nan-mean", "gamma-inf-mean",
        "gamma-nan-cv", "gamma-inf-cv"])
def test_simulate_rejects_a_non_integral_or_non_finite_size(tmp_path, capsys, entry):
    # json writes and reads NaN and Infinity; none may run as a truncated size
    config, _ = base_config(tmp_path, cluster_sizes=[entry])
    assert main(["simulate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and "cluster_sizes" in err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("entry", [1e300, {"type": "fixed", "m": 10**300}, 2**63],
                         ids=["float", "fixed-entry", "int64-max-plus-1"])
def test_simulate_rejects_a_size_outside_int64(tmp_path, capsys, entry):
    config, _ = base_config(tmp_path, cluster_sizes=[entry])
    assert main(["simulate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and "64-bit" in err
    assert not (tmp_path / "results.csv").exists()
    assert FixedSize(2**63 - 1).m == 2**63 - 1


@pytest.mark.parametrize("entry, message", [
    ({"type": "gamma", "mean": 1e300, "cv": 0.5}, "64-bit"),
    ({"type": "gamma", "mean": 1e19, "cv": 0.5}, "64-bit"),
    (1e18, "cannot be drawn as one array"),
    (4e18, "cannot be drawn as one array"),        # N * m passes int64
], ids=["gamma-mean-1e300", "gamma-mean-1e19", "fixed-1e18", "fixed-4e18"])
def test_simulate_rejects_sizes_that_cannot_be_drawn(tmp_path, capsys, entry, message):
    config, _ = base_config(tmp_path, cluster_sizes=[entry])
    assert main(["simulate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and message in err
    assert not (tmp_path / "results.csv").exists()


def test_simulate_stops_at_gamma_draws_that_cannot_form_one_array(tmp_path, capsys,
                                                                  monkeypatch):
    # the config cannot show it: the drawn sizes sum past one array's length,
    # and the run ends on an error line before any uniform is asked for
    class SizesOnly:
        def __init__(self, rng):
            self.gamma = rng.gamma

        def random(self, size):
            raise AssertionError(f"{size} uniforms asked for")

    substream = crtgee.datagen.substream
    monkeypatch.setattr(crtgee.datagen, "substream", lambda *key: SizesOnly(substream(*key)))
    config, _ = base_config(tmp_path, cluster_sizes=[{"type": "gamma", "mean": 5e17, "cv": 0.5}])
    assert main(["simulate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError: ") and "cannot be drawn as one array" in err


def test_simulate_out_of_memory_is_an_error_line(tmp_path, capsys, monkeypatch):
    # a size that fits int64 can still ask for more uniforms than memory
    # holds; the generator's MemoryError is stood in for, never provoked
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 43.7 TiB for an array")

    monkeypatch.setattr(crtgee.simulate, "generate_block", no_memory)
    config, _ = base_config(tmp_path, cluster_sizes=[10**12])
    assert main(["simulate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 43.7 TiB for an array\n"


def test_config_fixed_size_may_be_written_as_an_integral_float(tmp_path):
    config, _ = base_config(tmp_path, cluster_sizes=[8.0])
    grid, _, _ = parse_grid_config(json.loads(config.read_text()))
    assert grid.sizes == (FixedSize(8),)


def simulated_results(tmp_path, **overrides):
    config, _ = base_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(config)]) == 0
    return tmp_path / "results.csv"


def test_report_group_by_estimator_single_scenario_passthrough(tmp_path, capsys):
    # one scenario and one model: grouping by estimator returns one row
    # per estimator whose means equal the stored values verbatim
    results = simulated_results(
        tmp_path, n_clusters=[10], icc=[0.05], models=["gaussian-identity"], replicates=12,
    )
    out = tmp_path / "summary.csv"
    assert main(["report", "--results", str(results), "--by", "estimator",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("estimator,n_rows,mean_conv_rate,mean_esd,mean_se,"
                        "mean_pct_bias,mean_type1,frac_acceptable")
    assert len(lines) == 4  # header + robust, kc, md
    stored = {}
    for ln in read_results_lines(results)[1:]:
        f = ln.split(",")
        stored[f[8]] = f
    for ln in lines[1:]:
        f = ln.split(",")
        kind = f[0]
        assert f[1] == "1"
        assert f[2] == stored[kind][11]   # conv_rate
        assert f[3] == stored[kind][12]   # esd
        assert f[4] == stored[kind][13]   # mean_se
        assert f[5] == stored[kind][14]   # pct_bias
        assert f[6] == stored[kind][15]   # type1
        want_flag = "1" if stored[kind][16] == "1" else "0"
        got_frac = f[7]
        assert got_frac in ("0.0", "1.0")
        assert (got_frac == "1.0") == (want_flag == "1")


def test_report_recomputed_band_matches_stored_flag(tmp_path):
    results = simulated_results(tmp_path, replicates=12)
    rows = read_results_lines(results)[1:]
    out = tmp_path / "summary.csv"
    assert main(["report", "--results", str(results), "--by", "scenario_id,estimator",
                 "--out", str(out)]) == 0
    # per (scenario, estimator) each group holds 2 models; frac_acceptable
    # must equal the fraction of stored acceptable flags in the group
    stored = {}
    for ln in rows:
        f = ln.split(",")
        key = (f[0], f[8])
        stored.setdefault(key, []).append(f[16])
    for ln in out.read_text().splitlines()[1:]:
        f = ln.split(",")
        key = (f[0], f[1])
        flags = [v for v in stored[key] if v != ""]
        if not flags:
            assert f[-1] == ""
            continue
        want = sum(1 for v in flags if v == "1") / len(flags)
        assert float(f[-1]) == pytest.approx(want, abs=1e-12)


def test_report_group_by_design_factors(tmp_path):
    results = simulated_results(tmp_path, replicates=6)
    out = tmp_path / "summary.csv"
    assert main(["report", "--results", str(results), "--by", "icc,n_clusters",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("icc,n_clusters,")
    # 2 icc x 2 n_clusters groups, integer-rendered n_clusters
    assert len(lines) == 5
    keys = [tuple(ln.split(",")[:2]) for ln in lines[1:]]
    assert keys == [("0.0", "6"), ("0.0", "10"), ("0.1", "6"), ("0.1", "10")]


def test_report_rejects_unknown_group_key(tmp_path, capsys):
    results = simulated_results(tmp_path, replicates=6)
    assert main(["report", "--results", str(results), "--by", "esd"]) == 1
    assert "esd" in capsys.readouterr().err


def test_report_rejects_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert main(["report", "--results", str(bad), "--by", "estimator"]) == 1
    assert "schema" in capsys.readouterr().err


def test_report_stdout_default(tmp_path, capsys):
    results = simulated_results(
        tmp_path, n_clusters=[6], icc=[0.05], models=["gaussian-identity"], replicates=6,
    )
    assert main(["report", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("estimator,")


def test_simulate_resume_rejects_rows_of_another_grid(tmp_path, capsys):
    # same schema and row count per scenario, different design: the old
    # pi0 = 0.3, n_rep = 2 rows must not be kept for a pi0 = 0.1 grid
    out = tmp_path / "results.csv"
    doc = {"seed": 5, "replicates": 2, "n_clusters": [6], "cluster_sizes": [5], "pi0": [0.3],
           "icc": [0.05], "models": ["gaussian-identity"], "estimators": ["robust"],
           "output": str(out)}
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 0
    before = out.read_bytes()

    config.write_text(json.dumps({**doc, "pi0": [0.1], "replicates": 5}))
    capsys.readouterr()
    assert main(["simulate", "--config", str(config), "--resume"]) == 1
    assert "scenario 0" in capsys.readouterr().err
    assert out.read_bytes() == before

    # a scenario id the grid does not have is another grid's too
    config.write_text(json.dumps(doc))
    lines = before.decode().splitlines()
    out.write_text("\n".join([lines[0], "7" + lines[1][1:]]) + "\n")
    assert main(["simulate", "--config", str(config), "--resume"]) == 1
    assert "scenario 7" in capsys.readouterr().err
