"""The trial CSV reader (a numpy scan of plain blocks, then a column-wise csv path)
against the per-row parser it replaced.

`reference_read_trial_csv` is that parser, kept here as an independent
reference: every input must give an equal TrialDataset (ids in
first-appearance order, arms, each cluster's outcomes in row order), or the
same DataError message with the same line number: the physical line on
which the offending record starts.
"""

import codecs
import csv
import json
import locale
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crtgee.cli
from crtgee import Cluster, DataError, TrialDataset
from crtgee.cli import CSV_CHUNK_ROWS, TRIAL_CSV_HEADER, read_trial_csv

HEADER = ",".join(TRIAL_CSV_HEADER)


def reference_read_trial_csv(path):
    """The per-row parser: one csv record at a time, checked cell by cell."""
    order = []
    arms = {}
    outcomes = {}
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror}") from err
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        if tuple(cell.strip() for cell in header) != TRIAL_CSV_HEADER:
            raise DataError(
                f"{path}: line 1: header must be exactly "
                f"'{','.join(TRIAL_CSV_HEADER)}', got '{','.join(header)}'"
            )
        while True:
            lineno = reader.line_num + 1       # the line the next record starts on
            try:
                row = next(reader, None)
            except csv.Error as err:
                raise DataError(f"{path}: line {reader.line_num}: {err}") from None
            if row is None:
                break
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DataError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            cid, arm_s, out_s = (cell.strip() for cell in row)
            if not cid:
                raise DataError(f"{path}: line {lineno}: empty cluster_id")
            if arm_s not in ("0", "1"):
                raise DataError(f"{path}: line {lineno}: arm must be 0 or 1, got '{arm_s}'")
            if out_s not in ("0", "1"):
                raise DataError(f"{path}: line {lineno}: outcome must be 0 or 1, got '{out_s}'")
            arm = int(arm_s)
            if cid in arms and arms[cid] != arm:
                raise DataError(
                    f"{path}: line {lineno}: cluster '{cid}' appears in both arms"
                )
            if cid not in arms:
                arms[cid] = arm
                order.append(cid)
                outcomes[cid] = []
            outcomes[cid].append(int(out_s))
    if not order:
        raise DataError(f"{path}: no data rows")
    clusters = tuple(Cluster(id=cid, arm=arms[cid], outcomes=outcomes[cid]) for cid in order)
    return TrialDataset(clusters=clusters)


def parse_both(path):
    """(outcome, value) of each parser: ("ok", dataset) or ("error", message)."""
    results = []
    for parse in (read_trial_csv, reference_read_trial_csv):
        try:
            results.append(("ok", parse(str(path))))
        except DataError as err:
            results.append(("error", str(err)))
    return results


def assert_same(path):
    """Both parsers accept the file with equal datasets, or reject it alike.

    Returns the reader's dataset, or its error message.
    """
    (kind, got), (ref_kind, want) = parse_both(path)
    assert kind == ref_kind, (got, want)
    if kind == "error":
        assert got == want
        return got
    assert [c.id for c in got.clusters] == [c.id for c in want.clusters]
    assert [c.arm for c in got.clusters] == [c.arm for c in want.clusters]
    for a, b in zip(got.clusters, want.clusters):
        assert a.outcomes.dtype == b.outcomes.dtype
        np.testing.assert_array_equal(a.outcomes, b.outcomes)
    return got


def write(tmp_path, lines, name="trial.csv", newline="\n"):
    path = tmp_path / name
    path.write_bytes("".join(line + newline for line in lines).encode())
    return path


def trial_rows(n_clusters, seed, mean_size=8):
    """Data rows (id, arm, outcome) of a random trial, clusters in order."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_clusters):
        for y in rng.integers(0, 2, size=int(rng.integers(1, 2 * mean_size))):
            rows.append((f"c{i}", i % 2, int(y)))
    return rows


def csv_lines(rows):
    return [HEADER, *(f"{cid},{arm},{y}" for cid, arm, y in rows)]


# --- accepted inputs -----------------------------------------------------


def test_shuffled_and_interleaved_clusters(tmp_path):
    rows = trial_rows(12, seed=1)
    shuffled = [rows[k] for k in np.random.default_rng(2).permutation(len(rows))]
    data = assert_same(write(tmp_path, csv_lines(shuffled)))
    # first-appearance order, not sorted order
    first = list(dict.fromkeys(cid for cid, _, _ in shuffled))
    assert [c.id for c in data.clusters] == first


def test_whitespace_padded_cells(tmp_path):
    lines = [" cluster_id , arm ,outcome ", "  a ,0, 1", "b\t, 1 ,0 ", " a,0 ,0", "b,1,1"]
    data = assert_same(write(tmp_path, lines))
    assert [c.id for c in data.clusters] == ["a", "b"]
    np.testing.assert_array_equal(data.clusters[0].outcomes, [1.0, 0.0])


def test_quoted_ids_with_commas(tmp_path):
    lines = [HEADER, '"site 1, ward A",0,1', '"site 1, ward B",1,0', '"site 1, ward A",0,0',
             '"site ""2""",1,1', '"site 1, ward B","1","1"']
    data = assert_same(write(tmp_path, lines))
    assert [c.id for c in data.clusters] == ["site 1, ward A", "site 1, ward B", 'site "2"']


def test_crlf_line_endings(tmp_path):
    lines = csv_lines(trial_rows(6, seed=3))
    data = assert_same(write(tmp_path, lines, newline="\r\n"))
    assert data.n_clusters == 6


def test_a_file_without_newlines_is_not_read_whole_before_the_csv_reader(tmp_path):
    # lines ended by a lone \r hold no \n, so no count of \n can end a block
    lines = csv_lines(trial_rows(40, seed=14, mean_size=CSV_CHUNK_ROWS // 4))
    path = write(tmp_path, lines, newline="\r")
    scan = crtgee.cli._scan_plain
    with mock.patch.object(crtgee.cli, "_scan_plain", wraps=scan) as scanned:
        assert_same(path)
    assert max(len(call.args[0]) for call in scanned.call_args_list) < path.stat().st_size / 4


def test_blank_and_whitespace_only_rows(tmp_path):
    rows = csv_lines(trial_rows(4, seed=4))
    lines = [rows[0], "", rows[1], "   ", "\t", '""', rows[2], *rows[3:], "", " "]
    data = assert_same(write(tmp_path, lines))
    assert data.n_obs == len(rows) - 1


def test_file_longer_than_two_chunks_with_a_cluster_across_a_boundary(tmp_path):
    rows = trial_rows(6, seed=5, mean_size=CSV_CHUNK_ROWS // 2)
    # one cluster's rows straddle the end of the first chunk (record 1 is the header)
    straddle = [("wide", 1, k % 2) for k in range(40)]
    at = CSV_CHUNK_ROWS - 20
    rows = rows[:at] + straddle + rows[at:]
    rows += trial_rows(3, seed=6, mean_size=CSV_CHUNK_ROWS // 2)
    assert len(rows) > 2 * CSV_CHUNK_ROWS
    lines = csv_lines(rows)
    lines.insert(CSV_CHUNK_ROWS + 5, "")     # a blank row shifts the later records
    data = assert_same(write(tmp_path, lines))
    wide = next(c for c in data.clusters if c.id == "wide")
    np.testing.assert_array_equal(wide.outcomes, [k % 2 for k in range(40)])


def test_ids_alike_in_their_first_eight_bytes_stay_apart(tmp_path):
    rows = [("site-0123456789", 1, 0), ("site-0123456780", 1, 1), ("site-0123456789", 1, 1),
            ("site-01234567", 1, 1), ("b", 0, 1), ("site-0123456789 ", 1, 0)]
    data = assert_same(write(tmp_path, csv_lines(rows)))
    assert [c.id for c in data.clusters] == ["site-0123456789", "site-0123456780",
                                             "site-01234567", "b"]


def test_a_nul_byte_is_left_to_the_csv_reader(tmp_path):
    # Python 3.10's csv rejects it; later versions keep it in the id
    assert_same(write(tmp_path, [HEADER, "a,0,1", "b\0,1,0", "a\0,0,1", "b,1,1"]))


# --- rejected inputs -----------------------------------------------------


ERROR_CASES = {
    "empty-file": [],
    "bad-header": ["cluster,arm,outcome", "c1,0,1"],
    "blank-header": ["", HEADER, "c1,0,1"],
    "too-few-fields": [HEADER, "c1,0,1", "c1,0"],
    "too-many-fields": [HEADER, "c1,0,1", "c2,1,0,0"],
    "padded-blank-fields": [HEADER, "c1,0,1", "  ,  "],
    "empty-cluster-id": [HEADER, "c1,0,1", " ,1,0"],
    "arm-not-binary": [HEADER, "c1,0,1", "c1,2,0"],
    "arm-empty": [HEADER, "c1,0,1", "c2,,0"],
    "arm-two-characters": [HEADER, "c1,0,1", "c2,01,0"],
    "arm-non-ascii-digit": [HEADER, "c1,0,1", "c2,１,0"],
    # "" then "01": one join of the cells is "01", two characters for two rows
    "arm-empty-then-two-characters": [HEADER, "c1,,1", "c2,01,0"],
    "outcome-not-binary": [HEADER, "c1,0,1", "c1,0,yes"],
    "outcome-float": [HEADER, "c1,0,1.0"],
    "outcome-inner-space": [HEADER, "c1,0,0", "c2,1,1 0"],
    "both-arms": [HEADER, "c1,0,1", "c2,1,0", "c1,1,1"],
    "both-arms-within-new-cluster": [HEADER, "c9,1,1", "c9,0,1", "c2,0,0"],
    "error-after-blank-rows": [HEADER, "c1,0,1", "", "  ", "c2,1,0", "", "c2,x,0"],
    "no-data-rows": [HEADER, "", "   "],
    "one-cluster": [HEADER, "c1,0,1", "c1,0,0"],
    "one-arm": [HEADER, "c1,0,1", "c2,0,0"],
    # several problems in one row: field count, empty id, arm, outcome, both arms
    "fields-before-empty-id": [HEADER, "c1,0,1", ",2"],
    "empty-id-before-arm": [HEADER, "c1,0,1", ",2,5"],
    "arm-before-outcome": [HEADER, "c1,0,1", "c1,2,5"],
    "outcome-before-both-arms": [HEADER, "c1,0,1", "c1,1,5"],
    # problems in different rows: the earliest row wins
    "both-arms-before-bad-arm": [HEADER, "c1,0,1", "c1,1,1", "c2,7,0"],
    "bad-outcome-before-both-arms": [HEADER, "c1,0,1", "c2,1,2", "c1,1,1"],
    "both-arms-before-field-count": [HEADER, "c1,0,1", "c1,1,1", "c2,1"],
    # csv.reader's limit on a cell (131,072 characters by default)
    "id-past-the-field-limit": [HEADER, "c1,0,1", "c" * 200_000 + ",1,0"],
    "quoted-id-past-the-field-limit": [HEADER, "c1,0,1", '"' + "c" * 200_000 + '",1,0'],
    # a quoted newline makes record 2 span lines 2-3: the bad arm is on line 6
    "error-after-a-quoted-newline": [HEADER, '"c\n1",0,1', "a,0,1", "b,1,0", "b,7,1"],
}


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_errors_carry_the_same_message_and_record(tmp_path, name):
    message = assert_same(write(tmp_path, ERROR_CASES[name]))
    assert isinstance(message, str)


def test_error_names_the_physical_line_after_a_quoted_newline(tmp_path):
    message = assert_same(write(tmp_path, ERROR_CASES["error-after-a-quoted-newline"]))
    assert message.endswith("line 6: arm must be 0 or 1, got '7'")


def read_from_stdin(text, chunk=CSV_CHUNK_ROWS):
    """Run read_trial_csv('/dev/stdin') on `text` (str or bytes) through a pipe, in a
    fresh interpreter.

    Returns (the dataset as [[id, arm, outcomes]], or None, and stderr).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(crtgee.cli.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    code = (f"import json, crtgee.cli as cli; cli.CSV_CHUNK_ROWS = {chunk}; "
            "data = cli.read_trial_csv('/dev/stdin'); "
            "print(json.dumps([[c.id, c.arm, c.outcomes.tolist()] for c in data.clusters]))")
    data = text if isinstance(text, bytes) else text.encode()
    done = subprocess.run([sys.executable, "-c", code], input=data, capture_output=True,
                          env=env, timeout=120)
    stdout, stderr = done.stdout.decode(), done.stderr.decode()
    return (json.loads(stdout) if done.returncode == 0 else None), stderr


needs_stdin = pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")


@needs_stdin
def test_a_pipe_is_read_once_and_keeps_the_record_number():
    # a pipe cannot be read again to find the line a record starts on
    text = "\n".join([HEADER, "a,0,1", "b,1,1", "b,7,1"]) + "\n"
    _, stderr = read_from_stdin(text)
    assert "/dev/stdin: line 4: arm must be 0 or 1, got '7'" in stderr


@needs_stdin
def test_a_plain_pipe_gives_the_files_dataset(tmp_path):
    lines = csv_lines(trial_rows(5, seed=11))
    got, stderr = read_from_stdin("".join(line + "\n" for line in lines), chunk=4)
    want = assert_same(write(tmp_path, lines))
    assert got == [[c.id, c.arm, c.outcomes.tolist()] for c in want.clusters], stderr


@needs_stdin
def test_a_pipe_with_an_error_in_its_third_block_keeps_the_record_number(tmp_path):
    # blocks of 4 lines after the header: the first two are scanned, then
    # the csv reader takes the rest of the stream from line 10 on
    lines = csv_lines(trial_rows(4, seed=12))
    lines[11] = "c9,1,x"
    message = assert_same(write(tmp_path, lines))
    assert message.endswith("line 12: outcome must be 0 or 1, got 'x'")
    got, stderr = read_from_stdin("".join(line + "\n" for line in lines), chunk=4)
    assert got is None
    assert stderr.rstrip().endswith(message.replace(str(tmp_path / "trial.csv"), "/dev/stdin"))


def test_a_cell_past_the_field_limit_after_scanned_blocks_names_its_line(tmp_path):
    # the scan reads the first block, then csv.reader starts on its own line count
    lines = csv_lines(trial_rows(12, seed=14, mean_size=CSV_CHUNK_ROWS // 4))
    at = CSV_CHUNK_ROWS + 300
    lines[at] = "c" * 200_000 + ",1,0"
    message = assert_same(write(tmp_path, lines))
    assert message.endswith(f"line {at + 1}: field larger than field limit "
                            f"({csv.field_size_limit()})")


@needs_stdin
@pytest.mark.skipif(codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
                    reason="needs a UTF-8 locale")
def test_a_byte_a_pipe_cannot_decode_is_an_error_without_a_line():
    # a pipe cannot be read again to find the line that holds the byte
    got, stderr = read_from_stdin(HEADER.encode() + b"\na,0,1\n\xff,1,0\n")
    assert got is None
    assert "DataError: /dev/stdin: cannot decode byte 0xff as " in stderr


def test_missing_file_is_a_data_error(tmp_path):
    message = assert_same(tmp_path / "nope.csv")
    assert "cannot read" in message


def test_conflicting_arm_first_seen_in_a_later_chunk(tmp_path):
    rows = trial_rows(8, seed=7, mean_size=CSV_CHUNK_ROWS // 3)
    assert len(rows) > 2 * CSV_CHUNK_ROWS
    cid, arm, _ = rows[0]
    lines = csv_lines(rows)
    at = 2 * CSV_CHUNK_ROWS + 10
    lines.insert(at, f"{cid},{1 - arm},1")
    message = assert_same(write(tmp_path, lines))
    assert f"line {at + 1}: cluster '{cid}' appears in both arms" in message


def test_error_in_a_later_chunk_after_blank_rows(tmp_path):
    lines = csv_lines(trial_rows(6, seed=8, mean_size=CSV_CHUNK_ROWS // 2))
    lines[CSV_CHUNK_ROWS - 3 : CSV_CHUNK_ROWS - 3] = ["", "  ", ""]
    at = CSV_CHUNK_ROWS + 40
    lines[at] = "c0,0,2"
    message = assert_same(write(tmp_path, lines))
    assert f"line {at + 1}: outcome must be 0 or 1" in message


# --- every mix of cells across chunk boundaries ----------------------------


@st.composite
def csv_rows(draw):
    """Mostly valid records, some with padded or bad cells, blank rows or wrong widths."""
    code = st.sampled_from(["0", "1", " 1", "0 ", "", "2", "01", "000", "x"])
    valid = st.tuples(st.sampled_from(["a", "b", "c,d", "e\nf"]), st.sampled_from(["0", "1"]),
                      st.sampled_from(["0", "1"]))
    noisy = st.tuples(st.sampled_from(["a", "b", " a ", "c,d", "", "  "]), code, code)
    row = st.one_of(
        valid.map(list), valid.map(list), valid.map(list),
        noisy.map(list),
        st.sampled_from([[], [""], ["   "], ["a", "0"], ["a", "0", "1", "1"]]),
    )
    return draw(st.lists(row, max_size=14))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(rows=csv_rows(), chunk=st.integers(1, 4))
def test_any_rows_at_any_chunk_size_match_the_reference(tmp_path_factory, rows, chunk):
    path = tmp_path_factory.getbasetemp() / "chunked.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_CSV_HEADER)
        writer.writerows(rows)
    with mock.patch.object(crtgee.cli, "CSV_CHUNK_ROWS", chunk):
        assert_same(path)


@st.composite
def plain_text(draw):
    """Plain lines, some ending in \\r\\n, with non-ASCII and padded ids and now and then
    a cluster in both arms; then, at times, one line the csv path must read (quoted,
    lone \\r, NUL, bad code, blank, blank id, wrong width) and more plain lines."""
    ids = st.sampled_from(["a", " a", "a ", "b", "é", "x\xa0", "ç1", "site-0123456789",
                           "site-0123456780", "another-site-name"])
    # a cluster's arm follows from its stripped id, unless flipped
    flip = st.sampled_from([0] * 24 + [1])
    ending = st.sampled_from(["\n", "\n", "\r\n"])
    line = st.builds(lambda cid, f, y, end: f"{cid},{(ord(cid.strip()[-1]) + f) % 2},{y}{end}",
                     ids, flip, st.sampled_from(["0", "1"]), ending)
    odd = st.sampled_from(['"a",1,1\n', "a,1,1\rb,0,0\n", "a\rb,0,1\n", "a,2,1\n",
                           "a,1, 1\n", "\n", "a,1\n", "a,1,1,1\n", "a,,1\n", ",0,1\n",
                           " ,0,1\n", "\xa0,0,1\n", "b\0,1,1\n"])
    text = "".join(draw(st.lists(line, max_size=20)))
    if draw(st.booleans()):
        text += draw(odd) + "".join(draw(st.lists(line, max_size=6)))
    if draw(st.booleans()):
        text = text.rstrip("\n")                      # no final newline
    return HEADER + "\n" + text + "\n" * draw(st.integers(0, 2))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(text=plain_text(), chunk=st.integers(1, 4))
def test_plain_lines_at_any_chunk_size_match_the_reference(tmp_path_factory, text, chunk):
    path = tmp_path_factory.getbasetemp() / "plain.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(crtgee.cli, "CSV_CHUNK_ROWS", chunk):
        assert_same(path)


def test_a_plain_file_is_scanned_without_the_csv_reader(tmp_path):
    # written as the benchmark writes its trials: one unquoted row per outcome
    rows = trial_rows(40, seed=13, mean_size=300)
    path = write(tmp_path, csv_lines(rows))
    tokenised, tokenise = [], csv.reader

    def reader(lines):
        for record in tokenise(lines):
            tokenised.append(record)
            yield record

    with mock.patch.object(crtgee.cli.csv, "reader", reader):
        data = read_trial_csv(str(path))
    assert tokenised == [list(TRIAL_CSV_HEADER)]
    assert data.n_obs == len(rows) > 10 * CSV_CHUNK_ROWS
    assert_same(path)
