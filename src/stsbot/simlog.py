"""A run's log: its channels, its CSV format and the sinks that take it.

``engine.run_scenario`` hands its samples to a sink a block at a time:
``add(block)`` takes each block, a (rows, channels) float64 array in
CHANNELS order that the run reuses, and ``close()``, called once the run
ends, gives what ``run_scenario`` returns.  ``_SampleStore`` holds the log
and returns its SimLog; ``CsvSink`` streams it into a file the caller
opened, as ``stsbot simulate`` does into its log.csv.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

CHANNELS = [
    "time", "rep", "phase",
    "q_a", "q_c", "qd_a", "qd_c",
    "e_y", "e_z", "e_vy", "e_vz",
    "fy_des", "fz_des",
    "f1_map", "f2_map", "f1_fric", "f2_fric", "f1_cmd", "f2_cmd",
    "sat_1", "sat_2", "vel_exc_1", "vel_exc_2",
    "f1_trans", "f2_trans",
    "v2_belt", "v2_ref",
    "harness_fy", "harness_fz",
    "com_y", "com_z", "vcom_y", "vcom_z", "acom_y", "acom_z",
    "chair_fz", "feet_fy", "feet_fz",
    "seat_off", "brake",
]

# the codes of the ``phase`` channel
PHASE_SETTLE = 0
PHASE_RISE = 1
PHASE_PAUSE = 2
PHASE_DESCENT = 3
PHASE_PAUSE2 = 4

CSV_SCHEMA_VERSION = "stsbot-log v1"
# a log's 40 channels in 409-row blocks, map.csv's 4 columns in 4 096-row ones:
# 32 768 cells made study_sweep's peak RSS 1.3 MB higher, 8 192 its map writes slower
CSV_BLOCK_CELLS = 16384

# the step of a scenario that sets none, and of a one-row log whose meta has none [s]
DEFAULT_DT = 1e-3


@dataclass
class SimLog:
    """Uniform-rate time series of every simulation channel.

    ``data`` maps each channel to a 1-D float64 array. The log is held once.
    From ``run_scenario`` every channel is read-only: a channel that varies
    owns a C-contiguous array, and a channel that holds one value throughout
    is a zero-stride view of it that costs no memory (``_SampleStore``).
    From ``read_log`` each channel is a strided column of the (rows, columns)
    array that ``np.loadtxt`` read, which holds every column for
    ``from_csv`` and only the decoded ones for ``stsbot analyze``.
    """

    dt: float
    data: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]

    def __len__(self) -> int:
        return len(self.data["time"])

    def write_csv(self, path) -> None:
        """Write the header, then ``csv_rows`` of the channels: one block of
        CSV_BLOCK_CELLS cells is formatted and written at a time, so the
        whole text is never held at once."""
        names = list(self.data.keys())
        with open(path, "w", newline="\n") as fh:
            fh.write(csv_header(names, self.meta))
            fh.writelines(csv_rows([self.data[n] for n in names]))

    @classmethod
    def from_csv(cls, path) -> "SimLog":
        """Read every column of a log file (``read_log``)."""
        return read_log(path)


def log_meta(scenario) -> dict:
    """The meta of the scenario's log, known before its first sample.  A
    transfer reads no STS duration: its ``duration`` is the default, 2.0."""
    tr, mode_config, human = scenario.transfer, scenario.mode_config, scenario.human
    return {
        "dt": scenario.dt,
        "seed": scenario.seed,
        "repetitions": scenario.repetitions,
        "pause": scenario.pause,
        "settle": scenario.settle,
        "robot_attached": scenario.robot_attached,
        "payload": scenario.payload,
        "mode": (mode_config.mode.value if mode_config is not None
                 else ("transfer" if tr else "none")),
        "fz_pct": mode_config.fz_pct if mode_config is not None else 0.0,
        "ky": mode_config.ky if mode_config is not None else 0.0,
        "height": human.height if human else 0.0,
        "weight": human.mass if human else 0.0,
        "mobility": human.mobility if human else 0.0,
        "duration": 2.0 if tr else scenario.sts_duration,
        "v_z_target": tr.v_z_target if tr else 0.0,
    }


def read_log(path, decode=None) -> SimLog:
    """Read a log file as ``write_csv`` and ``CsvSink`` write it: with
    ``decode`` None, every column; else a run's log, whose header must name
    every channel of CHANNELS, decoding only ``time``, the header's last
    column and the columns ``decode`` names (a function: the ones it returns
    for the file's meta).

    A file that is missing or not such a log, a header that lacks ``time``
    or a channel it must name, a row whose cell count is not the header's, a
    decoded cell that is not a number, a ``time`` that is not finite and
    strictly increasing, a decoded ``rep`` or ``phase`` that is not a finite
    integer, or a meta number that is not finite raises ConfigError naming
    the path.  The cells of a column not decoded are never converted:
    ``stsbot analyze`` decodes only the channels its metrics read, so it
    passes a text cell in another channel that ``SimLog.from_csv`` refuses.
    It decodes 5 columns of a transfer's log and 13 of any other, the last
    column (``brake``) among them.
    """
    meta: dict = {}
    try:
        with open(path) as fh:
            head = [fh.readline()]
            header = head[0].strip()
            if not header.startswith("#") or CSV_SCHEMA_VERSION not in header:
                raise ConfigError(f"{path}: not a {CSV_SCHEMA_VERSION} file")
            head.append(fh.readline())
            line = head[-1].strip()
            if line.startswith("# meta "):
                meta = json.loads(line[len("# meta "):])
                if not isinstance(meta, dict):
                    raise ConfigError(f"{path}: the meta line is not a JSON object")
                head.append(fh.readline())
                line = head[-1].strip()
            names = line.split(",")
            if callable(decode):
                decode = decode(meta)
            if "time" not in names or len(set(names)) < len(names):
                raise ConfigError(f"{path}: bad column header {line!r}")
            if decode is not None and (missing := [
                    c for c in dict.fromkeys([*CHANNELS, *decode]) if c not in names]):
                raise ConfigError(f"{path}: no {', '.join(missing)} column")
            # with the last column among them, loadtxt refuses a row short of any cell
            cols = range(len(names)) if decode is None else sorted(
                {names.index(c) for c in ("time", *decode)} | {len(names) - 1})
            with warnings.catch_warnings():
                # an empty body is reported below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                try:
                    arr = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=cols)
                except ValueError as exc:
                    # loadtxt's row numbers count neither file lines nor agree
                    # with each other, so the line is found again here
                    raise ConfigError(_first_bad_line(path, len(head), names, cols)
                                      or f"{path}: {str(exc).split(';')[0]}") from exc
        _check_cell_counts(path, head, len(arr), names)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        # loadtxt appends advice on its own options after a ';'
        raise ConfigError(f"{path}: {str(exc).split(';')[0]}") from exc
    if arr.shape[0] == 0:
        raise ConfigError(f"{path}: no data rows")
    data = {names[k]: column for k, column in zip(cols, arr.T)}
    t = data["time"]
    if not (np.isfinite(t).all() and (np.diff(t) > 0.0).all()):
        raise ConfigError(f"{path}: time is not finite and strictly increasing")
    for name in ("rep", "phase"):
        col = data.get(name)
        if col is not None and not (np.isfinite(col).all() and (col == np.floor(col)).all()):
            raise ConfigError(f"{path}: {name} holds a value that is not a finite integer")
    for key in ("dt", "height", "weight", "payload", "fz_pct", "v_z_target"):
        value = meta.get(key, 0.0)
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: meta {key} {value!r} is not a finite number")
    dt = float(t[1] - t[0]) if len(t) > 1 else meta.get("dt", DEFAULT_DT)
    if not 0.0 < dt < math.inf:
        raise ConfigError(f"{path}: the time step {dt!r} is not a positive number")
    return SimLog(float(dt), data, meta)


def _check_cell_counts(path, head: list[str], rows: int, names: list[str]) -> None:
    """Raise ConfigError unless each of the ``rows`` rows ``np.loadtxt`` read
    past the ``head`` lines holds a cell for each of ``names``.

    loadtxt with ``usecols`` takes a row with extra cells.  With the last
    column among them it refuses a short one, so each row it read holds at
    least ``len(names) - 1`` commas, and if the body holds that many per row
    in all, no row holds more.  They are counted in 64 kB binary blocks:
    ~25 ms for a 32 MB log (1 MB blocks took as long and held 2 MB).  On any
    other count ``_first_bad_line`` reads the lines as loadtxt reads them, so
    commas in a comment pass and the first row of another length is named.
    """
    with open(path, "rb") as fh:
        commas = sum(block.count(b",") for block in iter(lambda: fh.read(1 << 16), b""))
    if commas - sum(line.count(",") for line in head) == rows * (len(names) - 1):
        return
    if error := _first_bad_line(path, len(head), names, ()):
        raise ConfigError(error)


def _first_bad_line(path, skip: int, names: list[str], decode) -> str | None:
    """The error naming the first line past the ``skip`` head lines whose
    cell count is not ``len(names)`` or whose cell in a column of ``decode``
    (indices into ``names``) is not a number; None if there is none.

    The lines are read as ``np.loadtxt`` reads them: each is the text before
    a ``#``, skipped when empty.
    """
    columns = len(names)
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            text = line.rstrip("\n").split("#", 1)[0]
            if number <= skip or not text:
                continue
            cells = text.split(",")
            if len(cells) != columns:
                end = f" (it ends before {names[len(cells)]})" if len(cells) < columns else ""
                return (f"{path}: line {number} holds {len(cells)} cells, "
                        f"the header names {columns} columns{end}")
            for k in decode:
                if not _is_number(cells[k]):
                    return f"{path}: line {number}: {names[k]} {cells[k]!r} is not a number"
    return None


def _is_number(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a float: what ``float``
    takes, less the underscores and non-ASCII digits loadtxt refuses."""
    try:
        float(cell)
    except ValueError:
        return False
    return cell.isascii() and "_" not in cell


def csv_header(names, meta: dict) -> str:
    """The head lines of a log file: the schema, the meta and the column names."""
    return (f"# {CSV_SCHEMA_VERSION}\n# meta {json.dumps(meta, sort_keys=True)}\n"
            + ",".join(names) + "\n")


def csv_rows(columns):
    """CSV rows of equal-length columns in blocks of CSV_BLOCK_CELLS cells
    (at least one row), each block the text of one ``CsvBlocks`` call."""
    text = CsvBlocks(len(columns))
    block = max(1, CSV_BLOCK_CELLS // len(columns))
    for start in range(0, len(columns[0]), block):
        yield text([c[start:start + block] for c in columns])


class CsvBlocks:
    """The CSV text of a table handed in one block of rows at a time, every
    cell the ``%.17g`` text of its float64 value.  ``csv_rows`` (the log
    writer and the map writer) and ``stsbot simulate``'s sink call it, and
    what it keeps of each column carries from one block to the next.

    Each block is one ``%``-format of a row template.  A column constant in
    the block is literal text in the template (keyed on its bits, so ``-0.0``
    stays apart from ``0.0``).  A column with at most half as many distinct
    values as the block has rows passes the text of each distinct value,
    formatted once, through ``%s``; the text is kept for the next block, which
    reuses it when its distinct values are the same (the map's ``y_m`` holds
    the same values in every block).  Any other column passes its floats to
    ``%.17g``, and so does every later block of it that is not constant:
    its text is the same either way, and ``np.unique`` is not run again.
    """

    def __init__(self, n_columns: int):
        self.kept = [None] * n_columns  # (distinct bits, their text) per column
        self.varied = [False] * n_columns  # whether the column has taken %.17g

    def __call__(self, columns) -> str:
        """The rows of one block: ``columns`` are its equal-length columns."""
        kept, varied = self.kept, self.varied
        rows = len(columns[0])
        fields, args = [], []
        for i, c in enumerate(columns):
            # only one block of a column is made contiguous float64 at a time
            x = np.ascontiguousarray(c, dtype=np.float64)
            bits = x.view(np.int64)
            if (bits == bits[0]).all():
                fields.append(f"{x[0]:.17g}")
                continue
            if not varied[i]:
                distinct, inverse = np.unique(bits, return_inverse=True)
                varied[i] = 2 * len(distinct) > rows
            if varied[i]:
                fields.append("%.17g")
                args.append(x.tolist())
                continue
            if kept[i] is None or not np.array_equal(kept[i][0], distinct):
                kept[i] = distinct, np.array(
                    [f"{v:.17g}" for v in distinct.view(np.float64).tolist()], dtype=object)
            fields.append("%s")
            args.append(kept[i][1][inverse].tolist())
        # the arguments row by row: column j's cells at j, j + k, ...
        k = len(args)
        cells = [None] * (rows * k)
        for j, a in enumerate(args):
            cells[j::k] = a
        return ((",".join(fields) + "\n") * rows) % tuple(cells)


class _SampleStore:
    """A run's log, filled a block of samples at a time: ``run_scenario``'s
    default sink.

    A channel is held as its first sample's value until a block differs from
    it by float64 bits (so ``-0.0`` stays apart from ``0.0``); then it gets
    its own C-contiguous array, the earlier samples set to that value, and
    that block and every later one are copied in.  ``close`` returns each
    channel read-only: its own array, or a zero-stride view of its one value
    if it never varied.  Of the 98 kg transfer's 40 channels 14 vary.
    """

    def __init__(self, n_samples: int, meta: dict):
        self.n = n_samples
        self.meta = meta
        self.filled = 0
        self.first = np.zeros(len(CHANNELS))  # a run of no samples logs zeros
        self.own = [None] * len(CHANNELS)

    def add(self, block: np.ndarray) -> None:
        """Append ``block``'s rows, one sample per row in channel order."""
        start, stop = self.filled, self.filled + len(block)
        if start == 0:
            self.first = block[0].copy()
        varied = (block.view(np.int64) != self.first.view(np.int64)).any(axis=0)
        for j, col in enumerate(self.own):
            if col is None and varied[j]:
                col = self.own[j] = np.full(self.n, self.first[j])
            if col is not None:
                col[start:stop] = block[:, j]
        self.filled = stop

    def close(self) -> SimLog:
        """The log at the meta's step, each channel read-only under its name."""
        for col in self.own:
            if col is not None:
                col.flags.writeable = False
        return SimLog(self.meta["dt"], {
            name: np.broadcast_to(v, (self.n,)) if col is None else col
            for name, v, col in zip(CHANNELS, self.first, self.own)}, self.meta)


class CsvSink:
    """``stsbot simulate``'s sink: the scenario's log, streamed into ``fh``,
    a text file opened with ``newline="\\n"`` that the caller closes.  The
    header is written at once, each block's rows as ``add`` takes them, and
    ``close`` gives the sample count."""

    def __init__(self, fh, scenario):
        self.fh = fh
        fh.write(csv_header(CHANNELS, log_meta(scenario)))
        self.text = CsvBlocks(len(CHANNELS))
        self.samples = 0

    def add(self, block: np.ndarray) -> None:
        self.fh.write(self.text(block.T))
        self.samples += len(block)

    def close(self) -> int:
        return self.samples
