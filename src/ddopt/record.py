"""The run record: a :class:`Trajectory` of named float64 columns, its CSV
files and its steady-state window statistics.

:func:`write_csvs` writes every CSV file, the runs' trajectories together,
formatting the columns they have in common once, with the bytes of '%.17g'
computed in numpy (:func:`_format_cells`) by exact integer and Dekker
arithmetic. The module imports only numpy and the standard library.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

STEADY_STATE_FRACTION = 0.2  # metrics use the final 20% of a run
_CSV_BLOCK_ROWS = 256  # rows formatted at a time: the text does not grow with the run


def _halves(v):
    """Dekker's split of ``v`` into ``high + low``, each of at most 26 bits."""
    split = v * 134217729.0   # 2**27 + 1
    high = split - (split - v)
    return high, v - high


# The powers of ten _format_cells scales by, exact in binary64: one column
# per power, the power over its two halves.
_POW10 = np.array([(power, *_halves(power)) for power in (float(10 ** p) for p in range(21))]).T
# The text before the digits of a value below 1, up to 1e-4.
_LEADING = np.frombuffer(b"0.000", np.uint8)


@functools.lru_cache(maxsize=None)   # built on the first CSV write, not at import
def _digits4() -> np.ndarray:
    """ASCII of 0000..9999, one uint32 each; entry 10000 + j is j with its
    trailing '0's NUL."""
    quads = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
             % 10 + ord("0")).astype(np.uint8)
    kept = np.cumsum(quads[:, ::-1] != ord("0"), axis=1, dtype=np.uint8)[:, ::-1] > 0
    return np.concatenate([quads, quads * kept]).view(np.uint32).ravel()


class NonFiniteStateError(Exception):
    """Integration produced NaN or infinity; carries the offending time."""

    def __init__(self, t: float):
        super().__init__(f"state became non-finite at t = {t!r}")
        self.t = t


class Trajectory:
    """Time-indexed record of named scalar columns (t first)."""

    def __init__(self, columns: dict):
        if "t" not in columns:
            raise ValueError("trajectory needs a 't' column")
        self.columns = _float_columns(columns)
        t = self.columns["t"]
        if len(t) >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("time column must be strictly increasing")

    @property
    def t(self) -> np.ndarray:
        return self.columns["t"]

    def __len__(self) -> int:
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def check_finite(self) -> None:
        for name, arr in self.columns.items():
            if not np.all(np.isfinite(arr)):
                bad = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise NonFiniteStateError(float(self.t[bad]))

    def window_mask(self) -> np.ndarray:
        """Boolean mask selecting the final ``STEADY_STATE_FRACTION`` of the run."""
        t = self.t
        return t >= t[0] + (1.0 - STEADY_STATE_FRACTION) * (t[-1] - t[0])

    def to_csv(self, path) -> None:
        """Write all columns, 17 significant digits, LF line endings."""
        write_csvs([(self.columns, path)])

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        with open(path, "r", newline="") as fh:
            header = fh.readline().strip()
            names = header.split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        data = np.array([[float(v) for v in row] for row in rows])
        if data.size == 0 or data.shape[1] != len(names):
            raise ValueError(f"malformed trajectory CSV {path}")
        return cls({name: data[:, i] for i, name in enumerate(names)})


def _float_columns(columns) -> dict:
    """``columns`` as one-dimensional float64 arrays of one length."""
    arrays, length = {}, None
    for name, values in columns.items():
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"column {name!r} is not one-dimensional")
        if length is None:
            length = arr.shape[0]
        elif arr.shape[0] != length:
            raise ValueError(f"column {name!r} has length {arr.shape[0]}, expected {length}")
        arrays[name] = arr
    return arrays


def write_csvs(pairs) -> None:
    """Write each ``(columns, path)`` pair as :meth:`Trajectory.to_csv` does;
    ``columns`` maps names to equal-length arrays, written as float64.

    Every mapping is checked before any file is opened. The columns of all
    files are keyed once, by their float64 bits, so that the columns that
    runs integrated together share, such as the time, the parameter path and
    a minimizer equal to it, are formatted once. The files are then written
    together, block of rows by block of rows: each block's distinct columns
    are formatted together (:func:`_format_cells`), and each file's rows are
    gathered from them and its NUL bytes dropped. Files may differ in length.
    """
    files, distinct, seen = [], [], {}
    for columns, path in pairs:
        arrays = list(_float_columns(columns).values())
        files.append((path, ",".join(columns), len(arrays[0]) if arrays else 0,
                      np.array([_column_index(col, distinct, seen) for col in arrays], np.intp)))
    lengths = np.array([len(col) for col in distinct], np.int64)
    with contextlib.ExitStack() as stack:
        handles = []
        for path, header, rows, ids in files:
            fh = stack.enter_context(open(path, "wb"))
            fh.write((header + "\n").encode())
            handles.append((fh, rows, ids))
        for start in range(0, max((rows for _, rows, _ in handles), default=0),
                           _CSV_BLOCK_ROWS):
            sizes = np.clip(lengths - start, 0, _CSV_BLOCK_ROWS)
            firsts = np.cumsum(sizes) - sizes   # the cell of each column's row `start`
            text, row = _format_cells(np.concatenate(
                [col[start:start + size] for col, size in zip(distinct, sizes) if size]))
            for fh, rows, ids in handles:
                if start >= rows:
                    continue
                cells = np.add.outer(np.arange(min(rows - start, _CSV_BLOCK_ROWS)),
                                     firsts.take(ids))
                block = text.take(row.take(cells), axis=0)
                block[:, -1, -1] = ord("\n")   # the row's last separator
                fh.write(block.tobytes().translate(None, b"\0"))


def _column_index(col: np.ndarray, distinct: list, seen: dict) -> int:
    """The index in ``distinct`` of the column with the bits of ``col``,
    appended if there is none; ``seen`` buckets them by length and a sample."""
    bucket = seen.setdefault((len(col), col[::max(1, len(col) // 16)].tobytes()), [])
    for i in bucket:
        if distinct[i] is col or np.array_equal(distinct[i].view(np.int64), col.view(np.int64)):
            return i
    bucket.append(len(distinct))
    distinct.append(col)
    return bucket[-1]


def _format_cells(values: np.ndarray):
    """``(text, row)``: ``text[row[i]]`` holds ``'%.17g' % values[i]``, NUL
    bytes, and a ',' in its last byte.

    '%.17g' rounds x to D * 10**(E - 16), D in [1e16, 1e17), and prints it in
    fixed point when -4 <= E < 17, trailing zeros cut. Here that is exact for
    1e-4 <= |x| < 1e17: E is guessed by log10 and corrected when one off,
    hi + lo = |x| * 10**(16 - E) exactly, and D = hi + rint(lo) rounds half
    to even, as hi is an even integer. D is split into digit groups by scalar
    divisions, 9 and 8 digits in int64 and then 4 at a time in uint32, and the
    groups are spelled by table. Cells sorted by E take their layout by
    slices. Zeros are written directly, other values by Python's '%'.
    """
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e17)
    zero = a == 0.0
    fi, zi, si = (np.flatnonzero(mask) for mask in (fast, zero, ~(fast | zero)))
    x = a.take(fi)
    E = np.clip(np.floor(np.log10(x)), -4, 16).astype(np.int8)
    hi, lo = _scale(x, E)
    high = (hi > 1e17) | (hi == 1e17) & (lo >= 0.0)
    off = np.flatnonzero(high | (hi < 1e16) | (hi == 1e16) & (lo < 0.0))
    E[off] += 2 * high[off] - 1
    hi[off], lo[off] = _scale(x[off], E[off])
    # No double in this range lies within half a 17th digit below a power of
    # ten, so D never rounds up to 1e17 and E stands.
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    order = np.argsort(E, kind="stable")   # int8: a stable radix sort
    E, D = E.take(order), D.take(order)
    top = D // 10 ** 8
    low = (D - top * 10 ** 8).astype(np.uint32)   # the last 8 digits
    top = top.astype(np.uint32)                   # the first 9
    first = top // 10 ** 8
    middle = top - first * 10 ** 8
    # The first digit, as 000d, then the others 4 at a time; + 10000 where
    # all the digits that follow are 0.
    q0, q2 = middle // 10000, low // 10000
    q1, q3 = middle - q0 * 10000, low - q2 * 10000
    ends = low == 0
    q0 += (ends & (q1 == 0)) * np.uint32(10000)
    q1 += ends * np.uint32(10000)
    q2 += (q3 == 0) * np.uint32(10000)
    q3 += 10000
    digits = _digits4().take(np.stack([first, q0, q1, q2, q3], axis=1))
    digits = digits.view(np.uint8)[:, 3:]   # 17 digits, the trailing zeros NUL
    source = np.concatenate([fi.take(order), zi, si])   # the value each row of text holds
    signed = len(fi) + len(zi)
    text = np.zeros((len(values), 25), np.uint8)   # '%.17g' takes at most 24 bytes
    text[:signed, 0] = np.signbit(values.take(source[:signed])) * np.uint8(ord("-"))
    text[len(fi):signed, 1] = ord("0")
    bounds = np.searchsorted(E, np.arange(-4, 18))
    for e, begin, end in zip(range(-4, 17), bounds[:-1], bounds[1:]):
        if begin == end:
            continue
        group, d = text[begin:end], digits[begin:end]
        if e >= 0:
            # The integer digits keep their zeros; the point is NUL where the
            # digit after it is.
            np.bitwise_or(d[:, :e + 1], ord("0"), out=group[:, 1:e + 2])
            if e < 16:
                np.minimum(d[:, e + 1], ord("."), out=group[:, e + 2])
                group[:, e + 3:19] = d[:, e + 1:]
        else:
            group[:, 1:2 - e] = _LEADING[:1 - e]   # 0. and the zeros after it
            group[:, 2 - e:19 - e] = d
    if len(si):
        padded = np.frombuffer(("%-24.17g" * len(si) % tuple(values[si].tolist())).encode(),
                               np.uint8).reshape(-1, 24)
        text[signed:, :24] = padded * (padded != ord(" "))
    text[:, -1] = ord(",")
    row = np.empty(len(values), np.int64)
    row[source] = np.arange(len(values))
    return text, row


def _scale(x: np.ndarray, E: np.ndarray):
    """``x * 10**(16 - E)`` as ``hi + lo`` exactly: Dekker's product, each
    factor split into halves of at most 26 bits."""
    power, ph, pl = _POW10.take(16 - E, axis=1)
    hi = x * power
    xh, xl = _halves(x)
    return hi, ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl


def steady_state_sup(traj: Trajectory, column: str) -> float:
    """Sup of |column| over the steady-state window, the final
    ``STEADY_STATE_FRACTION`` of the run."""
    return float(np.max(np.abs(traj.column(column))[traj.window_mask()]))


def steady_state_mean(traj: Trajectory, column: str) -> float:
    """Mean of column over the steady-state window. Finite values whose sum
    overflows are averaged scaled down by a power of two."""
    values = traj.column(column)[traj.window_mask()]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(values)
        if not np.isfinite(mean):
            # Exact scaling: a sum of up to sim.MAX_STEPS values below 2**512 is finite.
            mean = np.mean(values / 2.0 ** 512) * 2.0 ** 512
    return float(mean)


def column_name(prefix: str, order: int = 1, channel: int | None = None) -> str:
    """Recorded column name: order i >= 2 appends i, a channel _c (thetahat2_0)."""
    name = prefix if order == 1 else f"{prefix}{order}"
    return name if channel is None else f"{name}_{channel}"
