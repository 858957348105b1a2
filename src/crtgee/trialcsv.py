"""The trial CSV reader: an individual-level `cluster_id,arm,outcome` file to
its per-cluster sums.

Plain blocks (unquoted `id,arm,outcome` lines with bare 0/1 codes) are read
in one numpy pass each; from the first block that is not plain on, records
come from `csv.reader` and are checked one at a time.
"""

from __future__ import annotations

import csv
import io
import itertools
import os

import numpy as np

from .data import ClusterSums
from .errors import DataError

TRIAL_CSV_HEADER = ("cluster_id", "arm", "outcome")

#: characters of trial CSV text read and scanned together (64 KiB of ASCII);
#: bounds the scan's working memory, and does not change what it returns
SCAN_BLOCK_CHARS = 1 << 16

_NEWLINE, _CR = b"\n\r"
#: _WORD_MASKS[k] keeps the low k bytes of a 64-bit word
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

_CODES = {"0": 0, "1": 1}


def read_trial_csv(path):
    """Parse an individual-level trial CSV into its per-cluster sums, a ClusterSums.

    The record holds the cluster ids in order of first appearance, each
    cluster's arm, its size m_i (rows) and its event count s_i (rows with
    outcome 1), and raises TrialDataset's DataErrors for fewer than two
    clusters or a missing arm. Rows are reduced to these counts as they are
    read, so the reader's working memory is one block and the clusters'
    counts, at any file length. One UTF-8 byte-order mark before the header
    is dropped.

    The file is read as text, SCAN_BLOCK_CHARS characters at a time, and
    further while the text read holds no line end and may still start one
    plain line (at most the csv field size limit plus 6 bytes). The whole
    lines of a block, when plain (`_scan_plain`: unquoted, every
    line `id,arm,outcome` with bare 0/1 codes and a nonempty id, ending in
    \n or \r\n), are read in one numpy pass over their UTF-8 bytes. From
    the first block that is not plain to the end of the file, records are
    tokenised by `csv.reader` and checked one at a time, in the order 3
    fields, a nonempty id, arm 0/1, outcome 0/1, one arm per cluster; only
    that path reports errors, so every file gives the same counts or the
    same error either way. Errors carry the 1-based physical line on which
    the offending row starts (the header is line 1; blank rows count but
    are skipped, and a quoted cell may span lines), for a file and a pipe
    alike. A byte the text encoding cannot decode and a cell past
    `csv.field_size_limit()` are DataErrors too, naming the physical line
    that holds them (for a byte in a pipe, no line).
    """
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror}") from err
    ids = {}                                # cluster id -> index, in first-appearance order
    arm_of = np.zeros(0, dtype=np.uint8)    # each cluster's arm, by index
    tally = np.zeros(0, dtype=np.intp)      # at 2 i + y: cluster i's rows with outcome y
    with handle:
        first_line = 1                      # the physical line of reader's first line
        try:
            # the header's first line, less one byte-order mark; taken by next(), as
            # a text handle first read by readline() keeps each block's bytes for tell()
            first = next(handle, "").removeprefix("\ufeff")
            reader = csv.reader(itertools.chain([first] if first else [], handle))
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            if tuple(cell.strip() for cell in header) != TRIAL_CSV_HEADER:
                raise DataError(
                    f"{path}: line 1: header must be exactly "
                    f"'{','.join(TRIAL_CSV_HEADER)}', got '{','.join(header)}'"
                )
            next_line = reader.line_num + 1   # the physical line the next record starts on
            pending = b""                   # text read but not yet scanned, as UTF-8
            longest = csv.field_size_limit() + 6    # a plain line: id, then ",a,o\r\n"
            while True:
                # one block more; a block that is not plain (a lone \r, say, in a
                # file whose lines hold no \n) hands the rest to the csv path
                text = handle.read(SCAN_BLOCK_CHARS)
                pending += text.encode()
                block = pending
                if text and b"\n" not in pending:
                    # the start of one long line, which may be plain: read on until
                    # it ends, or the file does, or it cannot be plain, and scan it
                    # alone, as its id's width sets the scan's memory per line
                    while (text and b"\n" not in pending and len(pending) <= longest
                           and b"\r" not in pending[:-1]):
                        text = handle.read(SCAN_BLOCK_CHARS)
                        pending += text.encode()
                    block = pending[:pending.find(b"\n") + 1]
                scanned = _scan_plain(block, ids, arm_of)
                if scanned is None:
                    break
                size, arm_of, index, outcomes = scanned
                pending = pending[size:]
                tally = _tally(tally, index, outcomes, len(ids))
                next_line += index.size
            if pending:
                # the unscanned text, completed to a line end, then the rest of the
                # stream; every scanned record is one line, so the first record
                # left starts on line next_line
                first_line = next_line
                rest = io.StringIO(pending.decode() + handle.readline(), newline="")
                reader = csv.reader(itertools.chain(rest, handle))
                counts, arms = tally.tolist(), arm_of.tolist()
                index_of, codes = ids.get, _CODES.get
                read = 0                    # lines the reader had read before a record
                for row in reader:
                    start, read = read, reader.line_num
                    if len(row) == 3:
                        cid, arm, outcome = row
                        cid = cid.strip()
                        arm, outcome = codes(arm.strip()), codes(outcome.strip())
                        if cid and arm is not None and outcome is not None:
                            index = index_of(cid)
                            if index is None:
                                index = ids[cid] = len(arms)
                                arms.append(arm)
                                counts += (0, 0)
                            if arms[index] == arm:
                                counts[2 * index + outcome] += 1
                                continue
                    elif _is_blank(row):
                        continue
                    raise DataError(f"{path}: line {first_line + start}: "
                                    f"{_row_error(row)}")
                tally = np.array(counts, dtype=np.intp)
                arm_of = np.array(arms, dtype=np.uint8)
        except UnicodeDecodeError as err:
            line = _undecodable_line(path, handle.encoding)
            where = "" if line is None else f"line {line}: "
            raise DataError(f"{path}: {where}cannot decode byte 0x{err.object[err.start]:02x} "
                            f"as {handle.encoding}") from None
        except csv.Error as err:
            raise DataError(f"{path}: line {first_line + reader.line_num - 1}: {err}") from None
    if not ids:
        raise DataError(f"{path}: no data rows")
    counts = tally.reshape(-1, 2)
    return ClusterSums(ids=tuple(ids), arm=arm_of, m=counts.sum(axis=1), s=counts[:, 1])


def _row_error(row):
    """What is wrong with a record the csv path rejects, by the first check it fails
    of 3 fields, a nonempty id and 0/1 arm and outcome codes; a record that passes
    all of these puts its cluster in a second arm."""
    if len(row) != 3:
        return f"expected 3 fields, got {len(row)}"
    cid, arm, outcome = (cell.strip() for cell in row)
    if not cid:
        return "empty cluster_id"
    if arm not in _CODES:
        return f"arm must be 0 or 1, got '{arm}'"
    if outcome not in _CODES:
        return f"outcome must be 0 or 1, got '{outcome}'"
    return f"cluster '{cid}' appears in both arms"


def _tally(tally, index, outcomes, n_clusters):
    """The row counts `tally` (at 2 i + y, cluster i's rows with outcome y, for the
    clusters known before a block) plus the block's rows, each a cluster index and a
    0/1 outcome, for all `n_clusters` clusters known now."""
    added = np.bincount(2 * index + outcomes, minlength=2 * n_clusters)
    added[:tally.size] += tally
    return added


def _scan_plain(pending, ids, arm_of):
    """Read the whole lines of `pending` (UTF-8 bytes) if they are plain.

    Plain lines hold no quote, NUL or lone \r, and each is `id,arm,outcome`
    ending in \n or \r\n, with `arm` and `outcome` a bare 0 or 1 and an id
    that is nonempty after `str.strip` and within the csv field size limit;
    every cluster's rows also keep one arm. For such lines `csv.reader`
    yields one record per line with the cells as they stand, so these are
    rows the csv path would accept as they are. The ids, zero-padded to a
    common multiple of 8 bytes, must also take at most twice the lines'
    bytes, which keeps the scan's memory that of the block.

    Returns (bytes read, `arm_of` extended by the clusters new to the
    block, each row's cluster index, its outcome codes), with the new
    clusters added to `ids`; or None, with nothing changed, when there is
    no whole line or a line is not plain.
    """
    ends = np.flatnonzero(np.frombuffer(pending, dtype=np.uint8) == _NEWLINE)
    n = ends.size
    if n == 0:
        return None
    size = int(ends[-1]) + 1
    block = pending[:size]
    if b'"' in block or b"\0" in block or block.count(b",") != 2 * n:
        return None
    raw = np.frombuffer(block, dtype=np.uint8)
    crlf = raw[ends - 1] == _CR
    tail = ends - crlf                  # each line's ",arm,outcome" ends here
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = tail - 4 - starts
    if (block.count(b"\r") != np.count_nonzero(crlf) or widths.min() < 1
            or widths.max() > csv.field_size_limit()):
        return None
    words = -(-int(widths.max()) // 8)
    if 8 * words * n > 2 * size:
        return None
    # at[p]: the 8 bytes from p on, as one little-endian word
    at = np.ndarray(size + 8 * words - 7, dtype="<u8", buffer=block + bytes(8 * words),
                    strides=(1,))
    # the four bytes ",a,o" before each line end: commas, and 0 or 1 digits;
    # with 2n commas in the block, none is left for an id
    codes = at[tail - 4]
    if ((codes & 0xFEFFFEFF) != 0x302C302C).any():
        return None
    arms = (codes >> 8 & 1).astype(np.uint8)
    outcomes = (codes >> 24 & 1).astype(np.uint8)

    # each id as a row of words, zero past its end; runs of lines that spell
    # one id, then the distinct spellings among the runs
    offsets = 8 * np.arange(words)
    keys = at[starts[:, None] + offsets] & _WORD_MASKS[
        np.minimum(np.maximum(widths[:, None] - offsets, 0), 8)]
    run = np.ones(n, dtype=bool)
    run[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    run_lines = np.flatnonzero(run)
    spellings, first, inverse = np.unique(
        keys[run_lines].astype("<u8", copy=False).view(f"S{8 * words}")[:, 0],
        return_index=True, return_inverse=True)
    first_lines = run_lines[first]

    # the spellings in order of first appearance, each to its cluster
    cluster = np.empty(len(spellings), dtype=np.intp)
    new, new_lines = {}, []
    order = np.argsort(first_lines)
    for k, line, spelling in zip(order.tolist(), first_lines[order].tolist(),
                                 spellings[order].tolist()):
        cid = spelling.decode().strip()
        if not cid:
            return None
        code = ids.get(cid, new.get(cid))
        if code is None:
            code = new[cid] = len(ids) + len(new)
            new_lines.append(line)
        cluster[k] = code
    run_lengths = np.empty_like(run_lines)
    run_lengths[:-1] = run_lines[1:] - run_lines[:-1]
    run_lengths[-1] = n - run_lines[-1]
    index = np.repeat(cluster[inverse], run_lengths)
    if new:
        arm_of = np.concatenate([arm_of, arms[new_lines]])
    if (arms != arm_of[index]).any():
        return None
    ids.update(new)
    return size, arm_of, index, outcomes


def _undecodable_line(path, encoding):
    """The 1-based physical line of the file's first byte that `encoding` cannot
    decode; None for a pipe, which cannot be read twice."""
    if not os.path.isfile(path):
        return None
    with open(path, newline="", encoding=encoding, errors="surrogateescape") as handle:
        for number, line in enumerate(handle, 1):
            try:
                line.encode(encoding)
            except UnicodeEncodeError:
                return number
    return None


def _is_blank(row):
    return not row or (len(row) == 1 and not row[0].strip())
