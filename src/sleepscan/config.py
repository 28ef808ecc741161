"""Single structured configuration for reproducible runs.

Every knob of the pipeline lives here with its default; a run is fully
identified by the hash of the parameter set (paths excluded).  Flags on
the command line override file values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .errors import ConfigError
from .simgen import SimConfig, macro21_layout


@dataclass(frozen=True)
class RunConfig:
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
    # simulation
    ues_per_cell: int = 15
    ue_speed_kmh: float = 30.0
    a3_margin_db: float = 3.0
    ttt_ms: float = 256.0
    a2_rsrp_threshold_dbm: float = -110.0
    a2_rsrp_hysteresis_db: float = 3.0
    a2_rsrq_threshold_db: float = -10.0
    a2_rsrq_hysteresis_db: float = 2.0
    rsrq_load_db: float = 6.0
    a2_report_interval_ms: float = 0.0
    duration_steps: int = 5720
    step_seconds: float = 0.1
    t304_ms: float = 200.0
    ho_complete_ms: float = 100.0
    ho_backoff_ms: float = 500.0
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
    # paths (optional; excluded from the config hash)
    data_dir: str | None = None
    out_dir: str | None = None

    def validate(self) -> "RunConfig":
        if self.n_sites < 1 or self.sectors_per_site < 1:
            raise ConfigError("layout needs at least one site and sector")
        if self.window_m < 2:
            raise ConfigError("window_m must be >= 2")
        if not 1 <= self.window_n <= self.window_m:
            raise ConfigError("window_n must satisfy 1 <= n <= m")
        if self.ngram_n < 1:
            raise ConfigError("ngram_n must be >= 1")
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
        if len(self.weights) != 4 or any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ConfigError("weights must be 4 non-negative values with a positive sum")
        if self.cell_id_base < 0:
            raise ConfigError("cell_id_base must be >= 0")  # -1 marks a record without a target
        for name in ("inter_site_distance_m", "map_resolution_m", "map_half_extent_m", "shadowing_correlation_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive")
        if round(2.0 * self.map_half_extent_m / self.map_resolution_m) < 1:
            raise ConfigError("the map must hold at least one pixel")
        if not (math.isfinite(self.shadowing_sigma_db) and self.shadowing_sigma_db >= 0):
            raise ConfigError("shadowing_sigma_db must be finite and >= 0")
        if not math.isfinite(self.tx_power_dbm):
            raise ConfigError("tx_power_dbm must be finite")
        n_cells = self.n_sites * self.sectors_per_site
        if not self.cell_id_base <= self.faulty_cell < self.cell_id_base + n_cells:
            raise ConfigError(f"faulty_cell {self.faulty_cell} not in layout")
        self.sim_config()  # runs SimConfig validation
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["weights"] = list(self.weights)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "weights" in data and data["weights"] is not None:
            data = {**data, "weights": tuple(float(w) for w in data["weights"])}
        return cls(**data).validate()

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(data)

    def with_overrides(self, **overrides) -> "RunConfig":
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if "weights" in overrides:
            overrides["weights"] = tuple(float(w) for w in overrides["weights"])
        return replace(self, **overrides).validate()

    def config_hash(self) -> str:
        d = self.to_dict()
        d.pop("data_dir", None)
        d.pop("out_dir", None)
        canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # views for the sub-systems
    def layout(self):
        if (self.n_sites, self.sectors_per_site) != (7, 3):
            raise ConfigError("only the 7-site, 3-sector scenario is implemented")
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

    def sim_config(self) -> SimConfig:
        cfg = SimConfig(
            ues_per_cell=self.ues_per_cell,
            ue_speed_kmh=self.ue_speed_kmh,
            a3_margin_db=self.a3_margin_db,
            ttt_ms=self.ttt_ms,
            a2_rsrp_threshold_dbm=self.a2_rsrp_threshold_dbm,
            a2_rsrp_hysteresis_db=self.a2_rsrp_hysteresis_db,
            a2_rsrq_threshold_db=self.a2_rsrq_threshold_db,
            a2_rsrq_hysteresis_db=self.a2_rsrq_hysteresis_db,
            rsrq_load_db=self.rsrq_load_db,
            a2_report_interval_ms=self.a2_report_interval_ms,
            duration_steps=self.duration_steps,
            step_seconds=self.step_seconds,
            t304_ms=self.t304_ms,
            ho_complete_ms=self.ho_complete_ms,
            ho_backoff_ms=self.ho_backoff_ms,
        )
        cfg.validate()
        return cfg
