"""CSV ingestion, report output, and experiment configs.

Both input files, the target (``year,value``) and a proxy matrix
(``year,<id>,...``), go through one streaming reader and one writer. All
interchange files are plain CSV with 17-significant-digit decimal floats,
which round-trip 64-bit values exactly while staying inspectable. Every
command writes a JSON manifest holding the fully resolved config; --config on
it reproduces the run, byte for byte with the same BLAS kernel (see ``cli``).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ._version import __version__
from .core import ProxyMatrix, TimeSeries
from .crossval import ExperimentReport
from .errors import (ConfigError, NonAnnualYears, NonFiniteValue, ParseError,
                     YearMismatch)
from .noise import NoiseSpec

DEFAULT_NOISE_COLUMNS = 1138


def format_float(x: float) -> str:
    """The 17-significant-digit decimal every CSV holds: exact for float64."""
    return format(float(x), ".17g")


def _require_int(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")


@dataclass(frozen=True)
class NoiseSource:
    """Proxies generated as noise; n, p (``noise_columns``) and seed are filled at run time."""

    kind: str
    phi: float | None = None

    def __post_init__(self):
        try:    # these stand-ins for the run-time values pass NoiseSpec's checks
            self.spec(n=2, seed=0, p=1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def spec(self, n: int, seed: int, p: int) -> NoiseSpec:
        """The recipe for this source's n x p matrix."""
        return NoiseSpec(kind=self.kind, n=n, p=p, seed=seed, phi=self.phi)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one batch run; the field names are the config keys.

    ``proxy_source`` is a proxy CSV's resolved path or a NoiseSource.
    Defaults reproduce the reference experimental design: 30-year holdout
    blocks and 100-member ensembles. ``psi_mc_columns`` sized the Monte Carlo
    Psi that exact Psi replaced; it is still validated, then ignored. Every
    phi's ``:g`` label and every p_ladder entry names output files and
    columns, so each must be distinct.
    """

    target: str
    proxy_source: str | NoiseSource
    output_dir: str
    noise_experiments: tuple[NoiseSource, ...] = ()
    n_v: int = 30
    ensemble_size: int = 100
    seed: int = 12345
    phi_list: tuple[float, ...] = (0.99,)
    psi_mc_columns: int | None = None
    noise_columns: int = DEFAULT_NOISE_COLUMNS
    p_ladder: tuple[int, ...] = (100, 1000, 10000)
    limit_repeats: int = 10
    mode: str = "strict"

    def __post_init__(self):
        object.__setattr__(self, "noise_experiments", tuple(self.noise_experiments))
        object.__setattr__(self, "phi_list", tuple(self.phi_list))
        object.__setattr__(self, "p_ladder", tuple(self.p_ladder))
        for name in ("target", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a path string, got {getattr(self, name)!r}")
        if not isinstance(self.proxy_source, (str, NoiseSource)):
            raise ConfigError("proxy_source must be a path string or a NoiseSource, "
                              f"got {self.proxy_source!r}")
        for name, minimum in (("n_v", 2), ("ensemble_size", 1), ("seed", 0),
                              ("noise_columns", 1), ("limit_repeats", 1)):
            _require_int(name, getattr(self, name), minimum)
        if self.psi_mc_columns is not None:
            _require_int("psi_mc_columns", self.psi_mc_columns, 1000)
        for i, p in enumerate(self.p_ladder):
            _require_int(f"p_ladder[{i}]", p, 1)
        if len(set(self.p_ladder)) != len(self.p_ladder):
            raise ConfigError(f"p_ladder entries must be distinct, got {list(self.p_ladder)}")
        if self.mode not in ("strict", "permissive"):
            raise ConfigError(f"mode must be 'strict' or 'permissive', got {self.mode!r}")
        if not self.phi_list:
            raise ConfigError("phi_list must not be empty")
        for phi in self.phi_list:
            if isinstance(phi, bool) or not isinstance(phi, numbers.Real) or not 0 < phi < 1:
                raise ConfigError(f"phi_list entries must be numbers in (0, 1), got {phi!r}")
        labels = [f"{phi:g}" for phi in self.phi_list]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"phi_list entries must have distinct :g labels, got {labels}")
        object.__setattr__(self, "phi_list", tuple(float(x) for x in self.phi_list))


def _noise_source(entry, where: str) -> NoiseSource:
    """A noise entry of a config, checked like its top-level keys."""
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(f"{where}: expected an object with a 'kind', got {entry!r}")
    extra = set(entry) - {f.name for f in fields(NoiseSource)}
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    return NoiseSource(**entry)


def config_from_dict(obj: dict, base_dir: Path) -> ExperimentConfig:
    """Build a config from parsed JSON whose keys are ExperimentConfig's
    fields; relative paths resolve against base_dir."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(obj) - {f.name for f in fields(ExperimentConfig)}
    if extra:
        raise ConfigError(f"unknown config keys {sorted(extra)}")
    if "target" not in obj:
        raise ConfigError("config needs a 'target' path")
    source = obj.get("proxy_source")
    if not isinstance(source, dict) or source.keys() not in ({"file"}, {"noise"}):
        raise ConfigError("proxy_source must be exactly one of {'file': ...} or {'noise': ...}")

    def resolve(p: str) -> str:
        return str((base_dir / p).resolve()) if not Path(p).is_absolute() else p

    try:
        return ExperimentConfig(**{
            **obj,
            "target": resolve(obj["target"]),
            "proxy_source": (resolve(source["file"]) if "file" in source
                             else _noise_source(source["noise"], "proxy_source.noise")),
            "output_dir": resolve(obj.get("output_dir", "out")),
            "noise_experiments": [_noise_source(e, f"noise_experiments[{i}]")
                                  for i, e in enumerate(obj.get("noise_experiments", ()))],
        })
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    """The inverse of config_from_dict: every field, None values left out."""
    out = asdict(config, dict_factory=lambda items: {k: v for k, v in items if v is not None})
    key = "noise" if isinstance(config.proxy_source, NoiseSource) else "file"
    out["proxy_source"] = {key: out["proxy_source"]}
    return out


def load_config(path) -> ExperimentConfig:
    """Read a config file, or a previously written manifest, into a config."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(obj, dict) and "config" in obj and "target" not in obj:
        obj = obj["config"]     # manifest: re-run from its embedded config
    return config_from_dict(obj, base_dir=path.parent)


def _parse_year(path, line_no, text: str) -> int:
    try:
        year = int(text)
    except ValueError:
        year = None
    if year is None or not -2**63 <= year < 2**63:     # years are held as int64
        raise ParseError(path, line_no, f"bad year {text!r}")
    return year


def _parse_value(path, line_no, text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ParseError(path, line_no, f"bad value {text!r}") from None
    if not math.isfinite(v):
        raise NonFiniteValue(f"{path}:{line_no}: non-finite value {text!r}")
    return v


def _read_table(path, ids=None) -> tuple[list[int], ProxyMatrix]:
    """The one CSV reader: the years and the matrix of a file with header
    ``year,<id>,...`` (exactly ``year,*ids`` when ids is given) and at least 2
    annual data rows, blank lines skipped.

    Rows are converted as they are read into one array, sized by the line
    count and shrunk in place, so at most one row of text is held at a time.
    A byte that is not UTF-8 is a ParseError naming its line.
    """
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b""))
    with open(path, newline="", encoding="utf-8") as fh:
        def numbered():
            try:
                yield from ((i + 1, row) for i, row in enumerate(csv.reader(fh)) if row)
            except UnicodeDecodeError as exc:   # raised for a read-ahead chunk, not for a line
                text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
                line = len(re.split("\r\n?|\n", re.split("[\udc80-\udcff]", text)[0]))
                raise ParseError(path, line, f"not UTF-8 text ({exc.reason})") from None
        rows = numbered()
        head = list(itertools.islice(rows, 2))
        if len(head) < 2:
            raise ParseError(path, len(head), "expected a header and at least one data row")
        header_line, header = head[0][0], [h.strip() for h in head[0][1]]
        if (len(header) < 2 or header[0] != "year"
                or ids is not None and header[1:] != list(ids)):
            wanted = ",".join(("year", *ids)) if ids is not None else "year,<id>,..."
            raise ParseError(path, header_line, f"expected header {wanted!r}, got {header}")
        years, data = [], np.empty((max(lines, 1), len(header) - 1))
        for line_no, row in itertools.chain(head[1:], rows):
            if len(row) != len(header):
                raise ParseError(path, line_no, f"expected {len(header)} fields, got {len(row)}")
            year = _parse_year(path, line_no, row[0])
            if years and year != years[-1] + 1:
                raise NonAnnualYears(f"{path}:{line_no}: year {year} does not follow {years[-1]}")
            years.append(year)
            try:
                values = np.array(row[1:], dtype=np.float64)   # float()'s conversion
            except ValueError:
                values = None
            if values is None or not np.isfinite(values).all():
                # token by token, so that the error names the first bad value
                values = np.array([_parse_value(path, line_no, text) for text in row[1:]])
            if len(years) > len(data):      # only lone "\r" line ends count short
                data.resize((2 * len(data), data.shape[1]), refcheck=False)
            data[len(years) - 1] = values
    if len(years) < 2:
        raise ParseError(path, line_no, "need at least 2 data rows")
    data.resize((len(years), data.shape[1]), refcheck=False)
    data.flags.writeable = False
    return years, ProxyMatrix(data=data, column_ids=tuple(header[1:]))


def load_target(path) -> TimeSeries:
    """Read a target series CSV with header ``year,value``."""
    years, table = _read_table(path, ids=("value",))
    return TimeSeries(years=years, values=table.data[:, 0])


def load_proxies(path, expected_years=None) -> ProxyMatrix:
    """Read a proxy matrix CSV: first column ``year``, one column per proxy.
    When expected_years is given, the file's years must match them exactly."""
    years, X = _read_table(path)
    if expected_years is not None and not np.array_equal(np.array(years), expected_years):
        raise YearMismatch(f"{path}: proxy years do not match the target years")
    return X


def write_csv(path, header, rows) -> Path:
    """Write a header line and the rows as CSV with "\\n" line ends."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
    return path


def save_proxies(X: ProxyMatrix, years, path) -> Path:
    if len(years) != X.n:
        raise YearMismatch(f"{len(years)} years for {X.n} rows")
    return write_csv(path, ["year", *X.column_ids],
                     ([int(year), *map(format_float, row.tolist())]
                      for year, row in zip(years, X.data)))


def save_target(series: TimeSeries, path) -> Path:
    return save_proxies(ProxyMatrix(series.values[:, None], ("value",)), series.years, path)


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_") or "report"


def write_block_table(path, block_starts, years, curves) -> Path:
    """One row per block: block_start, block_year (the target's year at the
    block start), then one column per (name, curve) pair."""
    header = ["block_start", "block_year"]
    columns = [[int(s) for s in block_starts], [int(years[s]) for s in block_starts]]
    for name, curve in curves:
        header.append(name)
        columns.append(list(map(format_float, np.asarray(curve).tolist())))
    return write_csv(path, header, zip(*columns))


def write_report(report: ExperimentReport, out_dir, years) -> Path:
    """Write blocks_<label>.csv: each block's RMSE and lambda."""
    curves = [("block_rmse", report.block_rmse), ("lambda", report.per_block_lambda)]
    return write_block_table(Path(out_dir) / f"blocks_{_slug(report.label)}.csv",
                             report.block_starts, years, curves)


def write_ensemble(label: str, members, mean, scatter, out_dir, years) -> Path:
    """Write ensemble_<label>.csv: each member's block RMSE, then their mean and scatter."""
    curves = [(f"member_{i:03d}", m.block_rmse) for i, m in enumerate(members)]
    curves += [("mean", mean), ("scatter", scatter)]
    return write_block_table(Path(out_dir) / f"ensemble_{_slug(label)}.csv",
                             members[0].block_starts, years, curves)


def write_manifest(out_dir, command: str, config: ExperimentConfig,
                   outputs: list[Path]) -> Path:
    """Write the run manifest; re-running --config on it reproduces the run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "paleo-xval",
        "version": __version__,
        "command": command,
        "config": config_to_dict(config),
        "outputs": sorted(p.name for p in outputs),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
