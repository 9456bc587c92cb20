"""Dataset directory ingestion and feature-table round-tripping.

Layout: <dir>/subject_<id>/trial_<id>.csv holds one header row naming the
eight channels followed by baseline rows then signal rows (3 s + 60 s at
128 Hz, 8064 rows total, unless a meta.json at the dataset root declares
other dimensions); trial_<id>.labels.csv holds the three ratings. Floats
are written with shortest round-trip formatting so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .entropy import FEATURE_NAMES, FeatureVector
from .errors import IngestionError, InvalidArgumentError
from .evaluate import Dataset, DatasetRow
from .signals import CHANNEL_ORDER, RATING_NAMES, Trial

DEFAULT_META = {"sample_rate_hz": 128.0, "baseline_samples": 384, "signal_samples": 7680}


@contextmanager
def written_whole(path) -> Iterator[TextIO]:
    """A text file that replaces ``path`` whole, or leaves it as it was.

    The file is opened under a temporary name in the same directory and
    moved onto ``path`` with one ``os.replace`` when the block ends; if the
    block raises, the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header line and one line per row.

    Floats take their shortest round-trip decimal, ``repr(float(v))``: that is
    what ``str`` gives a Python float, while a numpy float is converted first
    (the repr of ``np.float64`` is not a bare number). Every other cell is
    written with ``str``.
    """
    with written_whole(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [repr(float(v)) if isinstance(v, np.floating) else str(v) for v in row]
            fh.write(",".join(cells) + "\n")


def _load_meta(root: Path) -> dict:
    meta_path = root / "meta.json"
    if not meta_path.exists():
        return dict(DEFAULT_META)
    try:
        doc = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{meta_path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise IngestionError(f"{meta_path}: expected a JSON object")
    meta = dict(DEFAULT_META)
    unknown = [k for k in doc if k not in meta]
    if unknown:
        raise IngestionError(f"{meta_path}: unknown keys {unknown}")
    meta.update(doc)
    for key in ("baseline_samples", "signal_samples"):
        if type(meta[key]) is not int or meta[key] < 1:
            raise IngestionError(f"{meta_path}: {key} must be a positive integer, got {meta[key]!r}")
    rate = meta["sample_rate_hz"]
    if type(rate) not in (int, float) or not (0 < rate < math.inf):
        raise IngestionError(f"{meta_path}: sample_rate_hz must be a positive number, got {rate!r}")
    return meta


def _read_labels(path: Path) -> dict[str, float]:
    if not path.exists():
        raise IngestionError(f"missing labels file {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if len(rows) != 2:
        raise IngestionError(f"{path}: expected a header and one data row, found {len(rows)} rows")
    header, data = rows
    if [h.strip() for h in header] != list(RATING_NAMES):
        raise IngestionError(f"{path}: header must be {','.join(RATING_NAMES)}")
    out = {}
    for name, cell in zip(RATING_NAMES, data):
        try:
            out[name] = float(cell)
        except ValueError as exc:
            raise IngestionError(f"{path}: column {name}: could not parse {cell!r}") from exc
    return out


def _read_signal_csv(path: Path, expected_rows: int) -> dict[str, np.ndarray]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        expected = [k.value for k in CHANNEL_ORDER]
        missing = [name for name in expected if name not in header]
        if missing:
            raise IngestionError(f"{path}: missing channel column(s) {missing}")
        extra = [name for name in header if name not in expected]
        if extra:
            raise IngestionError(f"{path}: unknown channel column(s) {extra}")
        rows = list(reader)
    if len(rows) != expected_rows:
        raise IngestionError(
            f"{path}: expected {expected_rows} data rows "
            f"(baseline + signal), found {len(rows)}"
        )
    try:
        data = np.array(rows, dtype=np.float64)
    except ValueError:
        for i, row in enumerate(rows):
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}: row {i + 2}: expected {len(header)} cells, found {len(row)}"
                ) from None
            for name, cell in zip(header, row):
                try:
                    float(cell)
                except ValueError:
                    raise IngestionError(
                        f"{path}: row {i + 2}, column {name}: could not parse {cell!r}"
                    ) from None
        raise IngestionError(f"{path}: malformed numeric data") from None
    if not np.all(np.isfinite(data)):
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise IngestionError(f"{path}: row {i + 2}, column {header[j]}: non-finite value")
    return {name: data[:, header.index(name)] for name in (k.value for k in CHANNEL_ORDER)}


_SUBJECT_RE = re.compile(r"^subject_(\d+)$")
_TRIAL_RE = re.compile(r"^trial_(\d+)\.csv$")


def ingest_dataset(root) -> list[Trial]:
    """Read every subject_*/trial_*.csv under ``root``, validating shapes and
    cells; trials are ordered by (subject, trial)."""
    root = Path(root)
    if not root.is_dir():
        raise IngestionError(f"dataset directory {root} does not exist")
    meta = _load_meta(root)
    n_base = meta["baseline_samples"]
    n_sig = meta["signal_samples"]
    rate = float(meta["sample_rate_hz"])
    subjects = []
    for child in root.iterdir():
        m = _SUBJECT_RE.match(child.name)
        if child.is_dir() and m:
            subjects.append((int(m.group(1)), child))
    if not subjects:
        raise IngestionError(f"{root}: no subject_<id> directories found")
    trials: list[Trial] = []
    for subject_id, subject_dir in sorted(subjects):
        trial_files = []
        for child in subject_dir.iterdir():
            m = _TRIAL_RE.match(child.name)
            if m:
                trial_files.append((int(m.group(1)), child))
        if not trial_files:
            raise IngestionError(f"{subject_dir}: no trial_<id>.csv files found")
        for trial_id, path in sorted(trial_files):
            columns = _read_signal_csv(path, n_base + n_sig)
            labels_path = path.with_name(f"trial_{trial_id}.labels.csv")
            ratings = _read_labels(labels_path)
            for name, value in ratings.items():
                if not (1.0 <= value <= 9.0):
                    raise IngestionError(f"{labels_path}: {name}={value} outside [1, 9]")
            trials.append(
                Trial(
                    subject_id=subject_id,
                    trial_id=trial_id,
                    channels={k: columns[k.value][n_base:] for k in CHANNEL_ORDER},
                    baselines={k: columns[k.value][:n_base] for k in CHANNEL_ORDER},
                    ratings=ratings,
                    sample_rate_hz=rate,
                )
            )
    return trials


def write_dataset(trials: Sequence[Trial], root) -> None:
    """Write trials in the ingestible directory layout plus meta.json, which
    states the one rate and shape that every trial must share."""
    def shape(trial: Trial) -> tuple:
        return trial.sample_rate_hz, len(next(iter(trial.baselines.values()))), trial.n_samples

    rate, n_base, n_sig = shape(trials[0])
    odd = [(t.subject_id, t.trial_id) for t in trials if shape(t) != (rate, n_base, n_sig)]
    if odd:
        raise InvalidArgumentError(f"trials {odd} differ from the first in rate or length")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    meta = {"sample_rate_hz": rate, "baseline_samples": n_base, "signal_samples": n_sig}
    with written_whole(root / "meta.json") as fh:
        fh.write(json.dumps(meta, sort_keys=True))
    for trial in trials:
        subject_dir = root / f"subject_{trial.subject_id}"
        subject_dir.mkdir(exist_ok=True)
        cols = [
            np.concatenate([trial.baselines[kind], trial.channels[kind]])
            for kind in CHANNEL_ORDER
        ]
        write_csv(
            subject_dir / f"trial_{trial.trial_id}.csv",
            [k.value for k in CHANNEL_ORDER],
            np.column_stack(cols).tolist(),
        )
        write_csv(
            subject_dir / f"trial_{trial.trial_id}.labels.csv",
            RATING_NAMES,
            [[float(trial.ratings[n]) for n in RATING_NAMES]],
        )


# --- feature tables ----------------------------------------------------------

_FEATURE_HEADER = ("subject", "trial") + RATING_NAMES + FEATURE_NAMES


def write_features_csv(dataset: Dataset, path) -> None:
    """Feature table: subject, trial, the three ratings, then the 51 features."""
    rows = sorted(dataset.rows, key=lambda r: (r.subject_id, r.trial_id))
    write_csv(path, _FEATURE_HEADER, (
        [r.subject_id, r.trial_id]
        + [float(r.ratings[n]) for n in RATING_NAMES]
        + [r.features[n] for n in FEATURE_NAMES]
        for r in rows
    ))


def read_features_csv(path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"features file {path} does not exist; run `physioshap extract` first")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != _FEATURE_HEADER:
            raise IngestionError(f"{path}: unexpected header; regenerate with `physioshap extract`")
        rows = []
        for i, row in enumerate(reader):
            if not row:
                continue
            if len(row) != len(_FEATURE_HEADER):
                raise IngestionError(
                    f"{path}: row {i + 2}: expected {len(_FEATURE_HEADER)} cells, found {len(row)}"
                )
            try:
                subject = int(row[0])
                trial = int(row[1])
                ratings = {n: float(v) for n, v in zip(RATING_NAMES, row[2:5])}
                feats = {n: float(v) for n, v in zip(FEATURE_NAMES, row[5:])}
            except ValueError as exc:
                raise IngestionError(f"{path}: row {i + 2}: {exc}") from exc
            rows.append(
                DatasetRow(
                    row_id=len(rows),
                    subject_id=subject,
                    trial_id=trial,
                    features=FeatureVector(feats),
                    ratings=ratings,
                )
            )
    return Dataset(rows)
