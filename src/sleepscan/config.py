"""Single structured configuration for reproducible runs.

`RunConfig` holds every setting of a run with its default.  It extends
`SimConfig`, which declares the simulator engine's settings and their
checks; the scenario, seed, detection and localization settings are
declared in `RunConfig` itself.  A config is stored and checked when it
is built, by keywords, `dataclasses.replace` or `from_dict` alike, so
every config is valid and its hash, which identifies a run, depends
only on its values.  A command's configuration is exactly its
`--config` file, or these defaults: no flag changes a setting.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

# CPython's built-in SHA-256 gives hashlib's digest without loading OpenSSL's
# libcrypto, which would add about 3 MB to every command's memory.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in module

from .errors import ConfigError, DataError
from .mdtlog import EventId, is_json_int
from .simgen.layout import macro21_layout


def _is_finite_number(value) -> bool:
    if not (is_json_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


# Each field annotation of SimConfig and RunConfig: the check its stored
# value must pass, and how an error names that type.
_FIELD_TYPES = {
    "int": (is_json_int, "an integer"),
    "float": (_is_finite_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "int | str": (lambda v: is_json_int(v) or isinstance(v, str), "an integer or a string"),
    "tuple[float, float, float, float]": (
        lambda v: isinstance(v, tuple) and len(v) == 4 and all(map(_is_finite_number, v)),
        "4 finite numbers",
    ),
}


def _stored(annotation: str, value):
    """value as a config holds it in a field of this annotation: a finite number of a float field as a float,
    so that 30 and 30.0 are one setting with one hash, and a list of weights as a tuple; any other value
    as given, for the field's type check to reject."""
    if annotation == "float" and _is_finite_number(value):
        return float(value)
    if annotation == "tuple[float, float, float, float]" and isinstance(value, (list, tuple)):
        return tuple(_stored("float", v) for v in value)
    return value


# The settings detect's --config may change; every other setting of a run is its suite's.
DETECTION_SETTINGS = (
    "window_m", "window_n", "ngram_n", "knn_k", "threshold_percentile", "minor_components",
    "amplify", "weights", "gram_scope", "symmetry_mode",
)

# The longest N-gram featurize can code: its len(EventId)**n codes must fit an int64.
_MAX_NGRAM_N = max(n for n in range(1, 64) if len(EventId) ** n <= 2**63)


@dataclass(frozen=True)
class SimConfig:
    """The settings of the event simulator (`simgen.engine`), with their checks."""

    ues_per_cell: int = 15
    ue_speed_kmh: float = 30.0
    a3_margin_db: float = 3.0
    ttt_ms: float = 256.0
    a2_rsrp_threshold_dbm: float = -110.0
    a2_rsrp_hysteresis_db: float = 3.0
    a2_rsrq_threshold_db: float = -10.0
    a2_rsrq_hysteresis_db: float = 2.0
    rsrq_load_db: float = 6.0  # RSSI load factor: RSRQ = serving - total - this
    a2_report_interval_ms: float = 0.0  # >0: re-report period while A2 RSRQ holds
    duration_steps: int = 5720
    step_seconds: float = 0.1
    t304_ms: float = 200.0
    ho_complete_ms: float = 100.0
    ho_backoff_ms: float = 500.0

    def __post_init__(self) -> None:
        """Store each field (`_stored`) and check its type, then its range (`_check`): a ConfigError if one fails."""
        for f in fields(self):
            value = _stored(f.type, getattr(self, f.name))
            check, type_name = _FIELD_TYPES[f.type]
            if not check(value):
                raise ConfigError(f"{f.name} must be {type_name}, got {value!r}")
            object.__setattr__(self, f.name, value)
        self._check()

    def _check(self) -> None:
        """The checks of the settings' ranges; each float setting is already finite (its type check)."""
        if self.ues_per_cell < 1:
            raise ConfigError("ues_per_cell must be >= 1")
        if self.duration_steps < 1:
            raise ConfigError("duration_steps must be >= 1")
        if not self.step_seconds > 0:
            raise ConfigError("step_seconds must be finite and positive")
        for name in (
            "ue_speed_kmh", "a2_rsrp_hysteresis_db", "a2_rsrq_hysteresis_db",
            "ttt_ms", "t304_ms", "ho_complete_ms", "ho_backoff_ms", "a2_report_interval_ms",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be finite and >= 0")

    def steps(self, milliseconds: float, *, round_up: bool = False) -> int:
        step_ms = self.step_seconds * 1000.0
        n = milliseconds / step_ms
        return max(1, math.ceil(n) if round_up else round(n))


@dataclass(frozen=True)
class RunConfig(SimConfig):
    # scenario geometry
    n_sites: int = 7
    sectors_per_site: int = 3
    inter_site_distance_m: float = 500.0
    tx_power_dbm: float = 46.0
    cell_id_base: int = 1
    wrap_around: bool = True
    map_resolution_m: float = 5.0
    map_half_extent_m: float = 750.0
    shadowing_sigma_db: float = 8.0
    shadowing_correlation_m: float = 40.0
    # simulation (the engine's own settings are SimConfig's fields)
    faulty_cell: int = 1
    master_seed: int = 42
    # featurization and detection
    n_chunks: int = 6
    window_m: int = 15
    window_n: int = 10
    ngram_n: int = 2
    knn_k: int = 35
    threshold_percentile: float = 95.0
    minor_components: int | str = 6  # fixed count, or "auto" for spectrum-based selection
    # localization
    amplify: bool = True
    weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    gram_scope: str = "anomalous"  # or "all": deviation over every testing sub-call
    symmetry_mode: str = "handover"  # or "location": dominance-cell crossings
    # unused: the paths are the commands' --data and --out; only null is valid, and the hash leaves them out
    data_dir: str | None = None
    out_dir: str | None = None

    def _check(self) -> None:
        if (self.n_sites, self.sectors_per_site) != (7, 3):
            raise ConfigError("only the 7-site, 3-sector scenario is implemented")
        if self.window_m < 2:
            raise ConfigError("window_m must be >= 2")
        if not 1 <= self.window_n <= self.window_m:
            raise ConfigError("window_n must satisfy 1 <= n <= m")
        if not 1 <= self.ngram_n <= self.window_m:
            raise ConfigError("ngram_n must satisfy 1 <= ngram_n <= window_m")
        if self.ngram_n > _MAX_NGRAM_N:
            raise ConfigError(f"ngram_n must be <= {_MAX_NGRAM_N}, or its N-gram codes overflow int64")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be >= 1")
        if not 0 < self.threshold_percentile <= 100:
            raise ConfigError("threshold_percentile must be in (0, 100]")
        if self.n_chunks < 1:
            raise ConfigError("n_chunks must be >= 1")
        if isinstance(self.minor_components, str):
            if self.minor_components != "auto":
                raise ConfigError('minor_components must be a positive int or "auto"')
        elif self.minor_components < 1:
            raise ConfigError("minor_components must be >= 1")
        if self.gram_scope not in ("anomalous", "all"):
            raise ConfigError('gram_scope must be "anomalous" or "all"')
        if self.symmetry_mode not in ("handover", "location"):
            raise ConfigError('symmetry_mode must be "handover" or "location"')
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ConfigError("weights must be 4 non-negative values with a positive sum")
        if not math.isfinite(100.0 * sum(self.weights)):  # combine's terms and partial sums reach 100 * sum
            raise ConfigError("weights are too large: 100 times their sum must be a finite float")
        if self.cell_id_base < 0:
            raise ConfigError("cell_id_base must be >= 0")  # -1 marks a record without a target
        for name in ("inter_site_distance_m", "map_resolution_m", "map_half_extent_m", "shadowing_correlation_m"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be finite and positive")
        if round(2.0 * self.map_half_extent_m / self.map_resolution_m) < 1:
            raise ConfigError("the map must hold at least one pixel")
        if self.shadowing_sigma_db < 0:
            raise ConfigError("shadowing_sigma_db must be finite and >= 0")
        n_cells = self.n_sites * self.sectors_per_site
        if not self.cell_id_base <= self.faulty_cell < self.cell_id_base + n_cells:
            raise ConfigError(f"faulty_cell {self.faulty_cell} not in layout")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        for name, flag in (("data_dir", "--data"), ("out_dir", "--out")):
            if getattr(self, name) is not None:
                raise ConfigError(f"{name} must be null: the command's {flag} gives that directory")
        super()._check()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["weights"] = list(self.weights)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:  # a directory, no permission, ...
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"config file {path} is not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(data)

    @classmethod
    def from_manifest(cls, manifest: dict, path) -> "RunConfig":
        """The configuration a manifest at path records; one that is not valid is a DataError naming path."""
        try:
            if not isinstance(manifest["config"], dict):
                raise ConfigError("it must be a JSON object")
            return cls.from_dict(manifest["config"])
        except ConfigError as exc:
            raise DataError(f"{path}: invalid config: {exc}") from None

    def config_hash(self) -> str:
        """SHA-256 hex digest of the canonical JSON of every setting but the unused data_dir and out_dir.

        The digest is hashlib's; it is computed with the built-in module
        imported above, so that no command loads OpenSSL for it.
        """
        d = self.to_dict()
        d.pop("data_dir", None)
        d.pop("out_dir", None)
        canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()

    # views for the sub-systems
    def layout(self):
        return macro21_layout(
            inter_site_distance=self.inter_site_distance_m,
            tx_power_dbm=self.tx_power_dbm,
            cell_id_base=self.cell_id_base,
            wrap_around=self.wrap_around,
        )

    def grid(self):
        return self.layout().default_grid(
            resolution_m=self.map_resolution_m, half_extent_m=self.map_half_extent_m
        )
