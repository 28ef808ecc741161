import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sleepscan
from sleepscan import localize
from sleepscan.config import RunConfig
from sleepscan.errors import ConfigError


def test_defaults_are_valid_and_roundtrip():
    cfg = RunConfig()
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
    with pytest.raises(ConfigError, match="^data_dir must be null"):  # the commands' --data and --out give them
        dataclasses.replace(base, data_dir="/tmp/a", out_dir="/tmp/b")
    reseeded = dataclasses.replace(base, master_seed=7)
    assert reseeded.config_hash() != base.config_hash()


DEFAULT_HASH = "bb6ae3483bbf72f57f59285b195d4481b4074463e73918674b085c90fc2e9779"

# The three ways to build a config from settings over the defaults.
BUILDERS = {
    "from_dict": RunConfig.from_dict,
    "constructor": lambda settings: RunConfig(**settings),
    "replace": lambda settings: dataclasses.replace(RunConfig(), **settings),
}


@pytest.mark.parametrize(
    "build",
    [lambda: RunConfig(ue_speed_kmh=30), lambda: RunConfig(weights=[1, 1, 1, 1]),
     lambda: dataclasses.replace(RunConfig(), ue_speed_kmh=30)],
    ids=["constructor_int_speed", "constructor_weights_list", "replace_int_speed"],
)
def test_a_config_built_by_keywords_is_stored_as_from_dict_stores_it(build):
    """A float setting given as an integer, or weights as a list, is stored as from_dict stores it."""
    cfg = build()
    assert cfg == RunConfig()
    assert hash(cfg) == hash(RunConfig())
    assert cfg.config_hash() == DEFAULT_HASH


# Valid values of float settings, integral so that each can be spelled as an int or as a float.
FLOAT_SETTINGS = {
    "ue_speed_kmh": st.integers(0, 300),
    "a2_report_interval_ms": st.integers(0, 1000),
    "map_resolution_m": st.integers(1, 50),
    "threshold_percentile": st.integers(1, 100),
    "tx_power_dbm": st.integers(-30, 60),
    "weights": st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(any),
}


def _spelled(value, as_float: bool):
    if not as_float:
        return value
    return tuple(map(float, value)) if isinstance(value, list) else float(value)


@given(
    values=st.fixed_dictionaries(FLOAT_SETTINGS),
    as_float=st.fixed_dictionaries({key: st.booleans() for key in FLOAT_SETTINGS}),
    builder=st.sampled_from(sorted(BUILDERS)),
)
def test_float_settings_give_one_config_and_one_hash_however_built_and_spelled(values, as_float, builder):
    """Any builder, and either spelling of each float setting, gives the config from_dict gives from floats."""
    cfg = BUILDERS[builder]({key: _spelled(value, as_float[key]) for key, value in values.items()})
    expected = RunConfig.from_dict({key: _spelled(value, True) for key, value in values.items()})
    assert cfg == expected and hash(cfg) == hash(expected)
    assert cfg.config_hash() == expected.config_hash()
    assert json.dumps(cfg.to_dict()) == json.dumps(expected.to_dict())
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize(
    "overrides",
    [{}, {"master_seed": 7}, {"knn_k": 5, "weights": [1.0, 2.0, 0.5, 1.0], "gram_scope": "all"}],
    ids=["defaults", "reseeded", "detection_settings"],
)
def test_hash_is_the_sha256_of_the_canonical_json(overrides):
    cfg = RunConfig.from_dict(overrides)
    settings = {k: v for k, v in cfg.to_dict().items() if k not in ("data_dir", "out_dir")}
    canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    assert cfg.config_hash() == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if not overrides:
        assert cfg.config_hash() == DEFAULT_HASH


@pytest.mark.parametrize("key", ["ue_speed_kmh", "a2_report_interval_ms", "map_resolution_m", "threshold_percentile"])
def test_a_float_setting_spelled_as_an_integer_is_stored_and_hashed_as_a_float(key):
    """30 and 30.0 are one value: the config holds the float, so its dict and hash are the defaults'."""
    cfg = RunConfig.from_dict({key: int(getattr(RunConfig(), key))})
    assert type(getattr(cfg, key)) is float
    assert cfg.to_dict() == RunConfig().to_dict()
    assert json.dumps(cfg.to_dict()) == json.dumps(RunConfig().to_dict())
    assert cfg.config_hash() == DEFAULT_HASH


def test_hash_falls_back_to_hashlib_without_the_builtin_module():
    """A Python built without its own SHA-256 module (`_sha2`, `_sha256`) hashes through hashlib, to the same digest."""
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None  # importing either now raises ImportError\n"
        "from sleepscan.config import RunConfig\n"
        "print(RunConfig().config_hash(), 'hashlib' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sleepscan.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [DEFAULT_HASH, "True"]


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
        ("map_half_extent_m", 1e308),  # 2 * half / resolution overflows a float
        ("map_resolution_m", 1e-310),
        ("map_resolution_m", math.nan),
        ("shadowing_correlation_m", -5.0),
        ("shadowing_sigma_db", math.nan),
        ("tx_power_dbm", math.nan),
        ("tx_power_dbm", math.inf),
        ("inter_site_distance_m", math.nan),
        ("inter_site_distance_m", math.inf),
        ("inter_site_distance_m", 0.0),
        ("inter_site_distance_m", -500.0),
        # values of the wrong type: a traceback or a silent cast before
        ("knn_k", "5"),
        ("ues_per_cell", "3"),
        ("weights", [math.nan, 1, 1, 1]),
        ("weights", [math.inf, 1, 1, 1]),
        ("weights", "abcd"),
        ("window_m", 15.5),
        ("knn_k", 2.5),
        ("n_chunks", 1.5),
        ("minor_components", 2.5),
        ("amplify", "no"),
        ("master_seed", -1),  # numpy's SeedSequence raised a ValueError traceback
        ("ngram_n", 16),  # longer than a window: no window holds one
        ("n_sites", 6),  # only the 7-site, 3-sector scenario is implemented
        # finite weights whose combination overflowed: nan combined scores, then a heatmap traceback
        ("weights", [1e308, 1e308, 1e308, 1e308]),
        ("weights", [1e307, 0, 0, 0]),
        ("weights", [0, 0, 0, 2e306]),
    ],
)
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_invalid_values_rejected(field, value, builder):
    with pytest.raises(ConfigError):
        BUILDERS[builder]({field: value})


def test_ngram_n_must_fit_the_int64_gram_codes():
    # 9**20 > 2**63: the codes of 20-grams wrapped around with no error
    with pytest.raises(ConfigError, match="ngram_n must be <= 19"):
        RunConfig.from_dict({"ngram_n": 20, "window_m": 40})
    assert RunConfig.from_dict({"ngram_n": 19, "window_m": 40}).ngram_n == 19
    assert RunConfig.from_dict({"ngram_n": 15}).ngram_n == 15  # as long as the default window


def test_largest_accepted_weights_combine_to_finite_scores():
    weights = [sys.float_info.max / 400] * 4  # 100 times their sum is the largest finite float
    cfg = RunConfig.from_dict({"weights": weights})
    parts = [np.array([100.0, 0.0]), np.array([0.0, 100.0]), np.array([50.0, 50.0]), np.array([100.0, 0.0])]
    assert localize.combine(parts, cfg.weights).tolist() == [62.5, 37.5]


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
