"""Config files, spectrum files, result CSVs and matrix files."""

from __future__ import annotations

import contextlib
import csv
import errno
import os
import re
from dataclasses import fields

import numpy as np
import yaml

from .errors import ConfigError, NumericError
from .metrics import ResultRow
from .simulation import (
    GAUSSIAN,
    PRIOR_SPECTRA,
    TARGET_COV_SPECTRUM,
    TARGET_IDENTITY,
    TARGET_TRUE_PRECISION,
    THREE_BLOCK,
    DistributionSpec,
    ExperimentConfig,
    TargetSpec,
)
from .spectral import SpectrumSpec

# Named spectra accepted wherever a spectrum file would be.
BUILTIN_SPECTRA = {
    "identity": SpectrumSpec.identity(),
    "threeblock": THREE_BLOCK,
    **PRIOR_SPECTRA,
}


RESULT_FIELDS = tuple(f.name for f in fields(ResultRow))


class _Loader(yaml.SafeLoader):
    """Safe YAML loader that reads ``1e-3``, ``2.5e3`` and ``1.0e300`` as
    floats, as JSON and YAML 1.2 do; YAML 1.1 reads a number with an exponent
    but no dot, or with a dot and an unsigned exponent, as a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _read_yaml(path: str, unreadable: str):
    """Parse a YAML or JSON file. A file not opened or not UTF-8 raises ``<unreadable>:
    <cause>``, bad YAML ``<path>: invalid YAML at line L, column C: ...``; both ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return yaml.load(handle, Loader=_Loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{unreadable}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{path}: invalid YAML{where}: {exc}") from exc


def load_spectrum(source) -> SpectrumSpec:
    """Resolve a builtin spectrum name, read a spectrum file (YAML/JSON) or
    parse a list; the list, inline or in the file, holds {weight, eigenvalue}
    mappings. Any other value is rejected, and never read as a file name."""
    payload = source
    if not isinstance(source, (str, list)):
        raise ConfigError("spectrum must be a builtin name, a file name or a list of "
                          f"{{weight, eigenvalue}} pairs, got {source!r}")
    if isinstance(source, str):
        if source in BUILTIN_SPECTRA:
            return BUILTIN_SPECTRA[source]
        payload = _read_yaml(source, f"unknown spectrum {source!r}: not a builtin name "
                             f"({', '.join(sorted(BUILTIN_SPECTRA))}) and not a readable file")
    if not isinstance(payload, list) or not payload:
        raise ConfigError("spectrum must be a non-empty list of {weight, eigenvalue} pairs")
    atoms = []
    for index, entry in enumerate(payload):
        if not isinstance(entry, dict) or set(entry) != {"weight", "eigenvalue"}:
            raise ConfigError(
                f"spectrum entry {index}: expected keys 'weight' and 'eigenvalue', got {entry!r}"
            )
        atoms.append(tuple(_number(entry[key], f"spectrum entry {index}: {key}")
                           for key in ("weight", "eigenvalue")))
    try:
        return SpectrumSpec(tuple(atoms))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_target(obj, *, bare: str) -> TargetSpec:
    """Parse a target: ``identity_over_p``, ``true_precision``, a spectrum
    (builtin name or file), ``inverse-of:<spectrum>`` or a ``{name,
    cov_spectrum}`` mapping. The last two name a prior covariance, whose
    inverse is the precision target; ``bare`` is the kind of a bare spectrum:
    ``cov_spectrum`` in config files, ``precision_spectrum`` on the command line.
    """
    if obj in (TARGET_IDENTITY, TARGET_TRUE_PRECISION):
        return TargetSpec(obj, obj)
    if isinstance(obj, dict):
        if set(obj) != {"name", "cov_spectrum"}:
            raise ConfigError(
                f"target mapping: expected keys 'name' and 'cov_spectrum', got {obj!r}")
        name = obj["name"]
        if (not isinstance(name, str) or not name or name.startswith("inverse-of:")
                or name in (TARGET_IDENTITY, TARGET_TRUE_PRECISION, *BUILTIN_SPECTRA)):
            raise ConfigError(f"target mapping {obj!r}: name must be a non-empty string that is "
                              "not itself a target spelling (identity_over_p, true_precision, "
                              "a builtin spectrum or inverse-of:<spectrum>)")
        return TargetSpec(name, TARGET_COV_SPECTRUM, load_spectrum(obj["cov_spectrum"]))
    text = obj.removeprefix("inverse-of:") if isinstance(obj, str) else None
    if text is None or not (text in BUILTIN_SPECTRA or os.path.isfile(text)):
        raise ConfigError(f"unknown target {obj!r}: expected identity_over_p, true_precision, "
                          f"a spectrum ({', '.join(sorted(BUILTIN_SPECTRA))} or a file), "
                          "inverse-of:<spectrum>, or a mapping with name and cov_spectrum")
    return TargetSpec(obj, bare if text == obj else TARGET_COV_SPECTRUM, load_spectrum(text))


def _typed(value, name: str, kind, what: str):
    """Return a config value unchanged if it is a ``kind`` (a type or a tuple
    of types); a bool counts only as a bool, never as a number."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _number(value, name: str) -> float:
    try:
        return float(_typed(value, name, (int, float), "a number"))
    except OverflowError as exc:
        raise ConfigError(f"{name} must be a number within the float range") from exc


def _reject_unknown(obj: dict, known, what: str) -> None:
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown, key=str)}")


def _parse_distribution(obj) -> DistributionSpec:
    if obj is None:
        return DistributionSpec(GAUSSIAN)
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"distribution must be a mapping with a 'kind' key, got {obj!r}")
    _reject_unknown(obj, ("kind", "df", "allow_low_df"), "distribution")
    allow_low_df = _typed(obj.get("allow_low_df", False), "allow_low_df", bool, "true or false")
    df = _number(obj["df"], "df") if "df" in obj else None
    try:
        return DistributionSpec(obj["kind"], degrees_of_freedom=df, allow_low_df=allow_low_df)
    except ValueError as exc:
        raise ConfigError(f"invalid distribution {obj!r}: {exc}") from exc


def load_experiment_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    """Read an experiment config file (YAML with named fields). A config
    without ``name`` is named by the file's stem: ``cfg/x.yaml`` gives ``x``."""
    payload = _read_yaml(path, f"cannot read config {path!r}")
    if not isinstance(payload, dict):
        raise ConfigError("experiment config must be a mapping of named fields")
    _reject_unknown(payload, (f.name for f in fields(ExperimentConfig)), "config")
    required = {"spectrum", "ratio", "p_grid", "replications", "estimators"}
    missing = required - set(payload)
    if missing:
        raise ConfigError(f"experiment config is missing fields: {sorted(missing)}")
    seed = seed_override if seed_override is not None else payload.get("seed")
    if seed is None:
        raise ConfigError("config provides no seed; pass --seed")
    payload = {"targets": [TARGET_IDENTITY], **payload}
    lists = {name: _typed(payload[name], name, list, "a list")
             for name in ("targets", "p_grid", "estimators")}
    stem = os.path.splitext(os.path.basename(path))[0]
    name = _typed(payload.get("name", stem), "name", str, "a non-empty string")
    if not name:
        raise ConfigError("name must be a non-empty string, got ''")
    try:
        return ExperimentConfig(
            name=name,
            spectrum=load_spectrum(payload["spectrum"]),
            targets=tuple(parse_target(t, bare=TARGET_COV_SPECTRUM) for t in lists["targets"]),
            ratio=_number(payload["ratio"], "ratio"),
            p_grid=tuple(_typed(p, "p_grid entry", int, "an integer") for p in lists["p_grid"]),
            distribution=_parse_distribution(payload.get("distribution")),
            replications=_typed(payload["replications"], "replications", int, "an integer"),
            seed=_typed(seed, "seed", int, "an integer"),
            estimators=tuple(_typed(e, "estimators entry", str, "a string")
                             for e in lists["estimators"]),
            clamp=_typed(payload.get("clamp", False), "clamp", bool, "true or false"),
            center=_typed(payload.get("center", False), "center", bool, "true or false"),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid experiment config: {exc}") from exc


def _format_value(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def rows_from_reports(config, reports) -> list[ResultRow]:
    """Flatten PrialReports into their ResultRows, one per (p, estimator).

    ``config`` is the experiment the reports were run from; its name,
    distribution, ratio and seed are already in every row.
    """
    return [row for report in reports for row in report.summaries]


def check_writable(path: str) -> None:
    """Raise :class:`ConfigError` when ``path`` cannot be written as a file.

    Commands call this before their work, so that no run ends in a failed write.
    """
    folder = os.path.dirname(path) or os.curdir
    code = (errno.EISDIR if os.path.isdir(path) else
            errno.ENOENT if not path or not os.path.isdir(folder) else
            errno.EACCES if not os.access(path if os.path.exists(path) else folder, os.W_OK) else 0)
    if code:
        raise ConfigError(f"cannot write {path!r}: {os.strerror(code)}")


@contextlib.contextmanager
def writing(path: str):
    """Report an ``OSError`` raised while writing ``path`` as a :class:`ConfigError`."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def write_results(path: str, rows: list[ResultRow]) -> None:
    """Write result rows as CSV; floats carry 17 significant digits."""
    with writing(path), open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESULT_FIELDS)
        for row in rows:
            writer.writerow([_format_value(getattr(row, name)) for name in RESULT_FIELDS])


def read_results(path: str) -> list[ResultRow]:
    """Load a result CSV back into typed rows (lossless float round-trip)."""
    types = {"int": int, "float": float, "str": str}
    converters = {f.name: types[f.type] for f in fields(ResultRow)}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != RESULT_FIELDS:
            raise ConfigError(f"{path}: unexpected result header {reader.fieldnames!r}")
        return [ResultRow(**{name: convert(record[name]) for name, convert in converters.items()})
                for record in reader]


# Every JSON value that is not a number (a string, array or object, true, false
# or null) holds one of these characters, so a line without them that orjson
# parses holds only numbers, which it reads as float() does.
_NON_NUMBER_CHARS = '"[{tfn'


def _cells(path: str, lineno: int, stripped: str) -> np.ndarray:
    """One line's cells, each read as ``float()`` reads it."""
    try:
        return np.array(stripped.split(","), dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{path}: line {lineno}: non-numeric cell ({exc})") from exc


def load_matrix(path: str) -> np.ndarray:
    """Read a rectangular numeric CSV matrix, BOM or not, with per-line diagnostics.

    Every cell is read as ``float()`` reads it. A line that can hold only
    JSON numbers goes through orjson, whose correctly rounded reader gives the
    same doubles about 3 times faster on 17-digit text; it takes the line as
    read, since JSON allows spaces, tabs and line ends around a number, and
    its list gives the line's width. A line it refuses (``nan``, ``.5``,
    ``+1``, ``1e400``, a padded ``\\x0b``, ...) or that holds an exact zero
    (orjson reads ``-0`` as the integer 0) is stripped and read cell by cell,
    after its commas give its width. A line of whitespace alone is skipped.
    The file is read a line at a time. orjson is imported here, so that
    ``import precshrink`` and ``limits`` do not load it.
    """
    import orjson

    rows = []
    width = None
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for lineno, line in enumerate(handle, start=1):
                row = stripped = None
                if not any(char in line for char in _NON_NUMBER_CHARS):
                    with contextlib.suppress(orjson.JSONDecodeError):  # whitespace is JSON's
                        row = np.array(orjson.loads(f"[{line}]"), dtype=float)
                if row is None or not row.all():  # refused, or holds an exact zero
                    stripped = line.strip()
                    count = stripped.count(",") + 1 if stripped else 0
                else:
                    count = row.size
                if not count:
                    continue
                if width is None:
                    width = count
                elif count != width:
                    raise ConfigError(f"{path}: line {lineno} has {count} cells, expected {width}")
                rows.append(row if stripped is None else _cells(path, lineno, stripped))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read matrix {path!r}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty matrix file")
    return np.array(rows, dtype=float)


def write_matrix(path: str, matrix: np.ndarray) -> None:
    """Write a 2-D matrix as CSV, one line per row, in shortest round-trip text.

    Each row goes through orjson's float writer, which gives the shortest text
    that reads back as the same double (``1.7891136537940072e-9``, ``-0.0``,
    ``5e-324``), so :func:`load_matrix`, ``float()`` and ``np.loadtxt`` read
    the written doubles back exactly. orjson writes a NaN or an infinity as
    ``null``, so a non-finite entry raises :class:`NumericError` before the
    file is opened. Rows are serialized one at a time, which keeps the extra
    memory to one row's text. orjson is imported here, as in
    :func:`load_matrix`.
    """
    import orjson

    matrix = np.ascontiguousarray(matrix, dtype=float)  # orjson takes C-contiguous rows only
    if not np.isfinite(matrix).all():
        raise NumericError(f"matrix for {path!r} has a NaN or infinite entry")
    with writing(path), open(path, "wb") as handle:
        for row in matrix:
            handle.write(orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b"\n")
