import json
import math

import pytest

from sleepscan.config import RunConfig
from sleepscan.errors import ConfigError


def test_defaults_validate_and_roundtrip():
    cfg = RunConfig().validate()
    rebuilt = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert rebuilt == cfg
    assert cfg.window_m == 15 and cfg.window_n == 10
    assert cfg.ngram_n == 2 and cfg.knn_k == 35
    assert cfg.minor_components == 6 and cfg.n_chunks == 6
    assert cfg.threshold_percentile == 95.0
    assert cfg.weights == (1.0, 1.0, 1.0, 1.0)


def test_hash_is_stable_and_ignores_paths():
    base = RunConfig()
    assert base.config_hash() == RunConfig().config_hash()
    with_paths = base.with_overrides(data_dir="/tmp/a", out_dir="/tmp/b")
    assert with_paths.config_hash() == base.config_hash()
    reseeded = base.with_overrides(master_seed=7)
    assert reseeded.config_hash() != base.config_hash()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"definitely_not_a_key": 1})


@pytest.mark.parametrize(
    "field,value",
    [
        ("window_m", 1),
        ("window_n", 0),
        ("window_n", 16),
        ("knn_k", 0),
        ("threshold_percentile", 0.0),
        ("minor_components", "sometimes"),
        ("minor_components", 0),
        ("gram_scope", "banana"),
        ("symmetry_mode", "banana"),
        ("weights", (1.0, 1.0)),
        ("weights", (0.0, 0.0, 0.0, 0.0)),
        ("faulty_cell", 99),
        ("duration_steps", 0),
        # simulator settings that crashed or gave a nonsense suite
        ("ttt_ms", math.nan),
        ("t304_ms", math.inf),
        ("ho_backoff_ms", -500.0),
        ("ue_speed_kmh", -30.0),
        ("ue_speed_kmh", math.nan),
        ("a2_rsrp_hysteresis_db", math.nan),
        ("rsrq_load_db", math.nan),
        ("step_seconds", math.nan),
        ("map_half_extent_m", -1.0),
        ("map_half_extent_m", 1.0),  # rounds to a map of no pixels
        ("map_resolution_m", math.nan),
        ("shadowing_correlation_m", -5.0),
        ("shadowing_sigma_db", math.nan),
        ("tx_power_dbm", math.nan),
        ("tx_power_dbm", math.inf),
        ("inter_site_distance_m", math.nan),
        ("inter_site_distance_m", math.inf),
        ("inter_site_distance_m", 0.0),
        ("inter_site_distance_m", -500.0),
    ],
)
def test_invalid_values_rejected(field, value):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({field: value})


@pytest.mark.parametrize("field", ["ho_complete_ms", "a2_report_interval_ms", "shadowing_sigma_db"])
def test_zero_stays_valid_where_the_golden_suites_use_it(field):
    assert getattr(RunConfig.from_dict({field: 0}), field) == 0


def test_auto_minor_components_allowed():
    cfg = RunConfig.from_dict({"minor_components": "auto"})
    assert cfg.minor_components == "auto"


def test_file_loading_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        RunConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="valid JSON"):
        RunConfig.from_file(bad)
    not_obj = tmp_path / "arr.json"
    not_obj.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        RunConfig.from_file(not_obj)
