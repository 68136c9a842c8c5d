"""CSV ingestion, atomic output writing and the bundled sample data.

Dataset CSV contract: a header row; column 1 is a string ``id``, unique per
row because a model file names its anchor row by id; columns 2..m+1 are
numeric features; the final column is ``index`` where an empty cell marks an
unknown value.  Every number is finite: ``nan``, ``inf`` and overflowing
literals such as ``1e400`` are parse errors.  UTF-8, comma separated,
decimal point.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from .pipeline import Dataset


class CsvParseError(ValueError):
    """Malformed dataset CSV; the message carries the offending line number."""


def table1_path():
    """The bundled six-city sample file, as a package resource.

    It is a ``Path`` when the package is installed as plain files; inside a
    zip archive it is a ``zipfile.Path``, which ``read_dataset`` also reads.
    """
    return resources.files("lipext.data") / "cities_table1.csv"


def read_dataset(path) -> Dataset:
    """Parse a dataset CSV, reporting the line number of any bad cell.

    ``path`` is a file path or a package resource such as ``table1_path()``.
    """
    if isinstance(path, (str, os.PathLike)):
        path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = _csv_rows(path, fh)
        try:
            _, header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}:1: empty file") from None
        if len(header) < 3:
            raise CsvParseError(
                f"{path}:1: need at least id, one feature and an index column"
            )
        feature_names = [h.strip() for h in header[1:-1]]
        ids: list[str] = []
        first_line: dict[str, int] = {}
        features: list[list[float]] = []
        index: list[float] = []
        for lineno, row in reader:
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}:{lineno}: expected {len(header)} columns, found {len(row)}"
                )
            cid = row[0].strip()
            if cid in first_line:
                raise CsvParseError(
                    f"{path}:{lineno}: duplicate id {cid!r} (first on line {first_line[cid]})"
                )
            first_line[cid] = lineno
            ids.append(cid)
            try:
                values = [float(cell) for cell in row[1:-1]]
            except ValueError as exc:
                raise CsvParseError(f"{path}:{lineno}: non-numeric feature: {exc}") from None
            if not all(map(math.isfinite, values)):
                cell = next(c for c, v in zip(row[1:-1], values) if not math.isfinite(v))
                raise CsvParseError(f"{path}:{lineno}: non-finite feature {cell.strip()!r}")
            features.append(values)
            last = row[-1].strip()
            if last == "":
                index.append(float("nan"))
            else:
                try:
                    value = float(last)
                except ValueError:
                    raise CsvParseError(
                        f"{path}:{lineno}: non-numeric index value {last!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CsvParseError(f"{path}:{lineno}: non-finite index value {last!r}")
                index.append(value)
        if not ids:
            raise CsvParseError(f"{path}:2: no data rows")
    return Dataset(ids, np.array(features), np.array(index), feature_names)


def _csv_rows(path, fh):
    """(line, row) for each row of ``csv.reader(fh)``, ``line`` being the
    physical line the row starts on: a quoted cell may span lines.  A
    ``csv.Error``, such as a cell over ``csv.field_size_limit()``, or a byte
    that is not UTF-8 ends in a ``CsvParseError`` naming ``path``."""
    reader = csv.reader(fh)
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise CsvParseError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 text: {exc}") from None


def dataset_hash(ds: Dataset) -> str:
    """Stable digest of ids, features and index values: the hex SHA-256 of
    the ids joined by U+001F in UTF-8, then the features and the index as
    float64 bytes in C order.

    The hash is CPython's built-in SHA-256, since ``hashlib`` would load
    OpenSSL's ``_hashlib`` (about 3.5 MiB of RSS); ``hashlib`` serves only
    builds made without the built-in hashes.  The digest is the same.
    """
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    h = sha256()
    h.update("\x1f".join(ds.ids).encode("utf-8"))
    h.update(np.ascontiguousarray(ds.features, dtype=float).tobytes())
    h.update(np.ascontiguousarray(ds.index, dtype=float).tobytes())
    return h.hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(payload) -> str:
    """``payload`` as the text of a JSON file, the only JSON lipext writes.

    A dataclass becomes the object of its fields and a tuple or numpy array
    a list; a float, numpy's float64 included, is written by ``repr``, and a
    non-finite one as the string "inf", "-inf" or "nan", so the text is
    valid JSON.  Keys are sorted, so equal payloads give equal bytes.
    """
    return json.dumps(_plain(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _plain(x):
    if dataclasses.is_dataclass(x):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_plain(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)  # "inf", "-inf" or "nan"
    return x


def csv_text(rows) -> str:
    """The CSV lines of ``rows``, the only CSV lipext writes: floats by
    ``repr``, which round-trips float64 exactly, so files are deterministic."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([float.__repr__(c) if isinstance(c, float) else c for c in row])
    return buf.getvalue()


def write_json(path: str | os.PathLike, payload) -> None:
    _atomic_write(Path(path), json_text(payload))


def write_csv(path: str | os.PathLike, header: list[str], rows: list) -> None:
    _atomic_write(Path(path), csv_text([header, *rows]))
