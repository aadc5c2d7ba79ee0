import re
from pathlib import Path

import pytest

from dpcrowd.config import (
    _KEYS,
    ALGORITHMS,
    ConfigError,
    ExperimentConfig,
    SEED_ENV_VAR,
    apply_override,
    config_from_mapping,
    config_to_flat,
    load_config,
    parse_config_text,
)

ROOT = Path(__file__).resolve().parents[1]


def test_parse_flat_keys_and_comments():
    text = """
    # comment line
    algorithm = fast
    epsilon = 0.5   # trailing comment
    net.m = 10
    """
    raw = parse_config_text(text)
    assert raw == {"algorithm": "fast", "epsilon": "0.5", "net.m": "10"}


def test_later_keys_win():
    raw = parse_config_text("epsilon = 1\nepsilon = 2\n")
    assert raw["epsilon"] == "2"


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("epsilon 0.5")


def test_mapping_builds_nested_sections():
    cfg = config_from_mapping({"algorithm": "fast", "net.m": "12", "net.rho": "0.5",
                               "model.q": "100", "pid.theta": "3.0"})
    assert cfg.net.m == 12
    assert cfg.net.rho == 0.5
    assert cfg.model.q == (100.0,)
    assert cfg.pid.theta == 3.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        config_from_mapping({"algorithm": "fast", "nett.m": "3"})
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({"bogus": "1"})


@pytest.mark.parametrize("section", ["model", "data", "net", "sampling", "pid", "grouping",
                                     "kcif"])
def test_section_name_as_top_level_key_rejected(section):
    # a section name is not a key of its own, with or without its dotted keys
    with pytest.raises(ConfigError, match=rf"unknown config key '{section}'"):
        config_from_mapping({"algorithm": "fast", section: "3"})
    with pytest.raises(ConfigError, match=rf"unknown config key '{section}'"):
        apply_override(ExperimentConfig(), section, "3")


@pytest.mark.parametrize("key, value", [("seed", "-1"), ("net.seed", "-5")])
def test_negative_seed_rejected(key, value):
    with pytest.raises(ConfigError, match=rf"^{key} must be >= 0"):
        config_from_mapping({"algorithm": "fast", key: value})
    assert config_from_mapping({"algorithm": "fast", key: "0"})



def test_negative_theta_rejected():
    with pytest.raises(ConfigError, match=r"^pid.theta must be >= 0, got -1.0$"):
        config_from_mapping({"algorithm": "dpcrowd", "pid.theta": "-1"})
    assert config_from_mapping({"algorithm": "dpcrowd", "pid.theta": "0"}).pid.theta == 0.0


@pytest.mark.parametrize("key", ["pid.cp", "pid.ci", "pid.cd"])
def test_negative_pid_gain_rejected(key):
    # a negative gain inverts the feedback, as a negative theta does
    with pytest.raises(ConfigError, match=rf"^{key} must be >= 0, got -1e\+308$"):
        config_from_mapping({"algorithm": "dpcrowd", key: "-1e308"})
    assert getattr(config_from_mapping({"algorithm": "dpcrowd", key: "0"}).pid, key[4:]) == 0.0


def test_negative_env_seed_rejected(tmp_path, monkeypatch):
    p = tmp_path / "c.cfg"
    p.write_text("algorithm = fast\n")
    monkeypatch.setenv(SEED_ENV_VAR, "-4")
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -4"):
        load_config(p)


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        config_from_mapping({"algorithm": "sgd"})


def test_w_required_for_windowed_modes():
    with pytest.raises(ConfigError, match="w >= 1"):
        config_from_mapping({"algorithm": "dpcrowd_plus", "w": "0"})


def test_dpcrowd_requires_one_dimension():
    with pytest.raises(ConfigError, match="one-dimensional"):
        config_from_mapping({"algorithm": "dpcrowd", "model.d": "3"})


def test_vector_q_parses():
    cfg = config_from_mapping({"algorithm": "dpcrowd_plus", "w": "4",
                               "model.d": "3", "model.q": "1, 2, 3"})
    assert cfg.model.q == (1.0, 2.0, 3.0)


def test_q_length_must_match_d():
    with pytest.raises(ConfigError, match="model.q"):
        config_from_mapping({"algorithm": "dpcrowd_plus", "w": "4",
                             "model.d": "3", "model.q": "1, 2"})


def test_defaults_validate():
    cfg = ExperimentConfig()
    cfg.validate()


def test_load_config_env_seed_override(tmp_path, monkeypatch):
    p = tmp_path / "c.cfg"
    p.write_text("algorithm = fast\nseed = 3\n")
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert load_config(p).seed == 99
    monkeypatch.delenv(SEED_ENV_VAR)
    assert load_config(p).seed == 3


def test_env_seed_must_be_integer(tmp_path, monkeypatch):
    p = tmp_path / "c.cfg"
    p.write_text("algorithm = fast\n")
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigError, match=r"^DPCROWD_SEED: expected an integer, got 'not-a-number'$"):
        load_config(p)


def test_flat_round_trip():
    cfg = config_from_mapping({"algorithm": "dpcrowd_w", "w": "16", "epsilon": "0.3",
                               "model.d": "2", "model.q": "5,6", "net.dynamic": "true"})
    flat = {k: str(v) for k, v in config_to_flat(cfg).items() if v is not None}
    again = config_from_mapping(flat)
    assert again == cfg


def test_apply_override_returns_validated_copy():
    cfg = ExperimentConfig()
    swept = apply_override(cfg, "epsilon", "0.25")
    assert swept.epsilon == 0.25
    assert cfg.epsilon == 1.0
    with pytest.raises(ConfigError):
        apply_override(cfg, "epsilon", "-1")


def test_apply_override_nested_key():
    swept = apply_override(ExperimentConfig(), "net.rho", "0.9")
    assert swept.net.rho == 0.9


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")), ids=lambda p: p.stem)
def test_apply_override_matches_a_full_reparse(path):
    # overriding one key gives the config that parsing the whole file with
    # that key changed gives
    cfg = load_config(path, apply_env_seed=False)
    flat = {k: str(v) for k, v in config_to_flat(cfg).items() if v is not None}
    for key, value in [("epsilon", "0.25"), ("seed", "12"), ("net.rho", "0.9"), ("net.seed", "3"),
                       ("model.q", "7"), ("grouping.enabled", "off"), ("data.path", "x.csv")]:
        assert apply_override(cfg, key, value) == config_from_mapping({**flat, key: value})


def test_key_table_is_the_echo_order_and_algorithms_keep_their_order():
    assert list(config_to_flat(ExperimentConfig())) == list(_KEYS)
    assert ALGORITHMS == ("nonprivate", "dpcrowd", "dpcrowd_plus", "dpcrowd_w", "fast", "dfast")


def test_readme_config_table_lists_every_key_once():
    # one row may name several keys (`pid.cp`, `pid.ci`, `pid.cd`)
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[1:]
    listed = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(listed) == sorted(_KEYS)


@pytest.mark.parametrize("key, word", [
    ("timestamps", "yes"), ("net.m", "on"), ("epsilon", "true"), ("net.rho", "off"),
    ("pid.ti", "false"), ("model.a", "no"),
])
def test_boolean_word_rejected_for_numeric_key(key, word):
    with pytest.raises(ConfigError, match=rf"^{key}: expected an? (integer|number), got '{word}'$"):
        config_from_mapping({"algorithm": "fast", key: word})


@pytest.mark.parametrize("key, value, message", [
    ("net.dynamic", "maybe", "net.dynamic: expected a boolean, got 'maybe'"),
    ("model.q", "1,x", "model.q: expected comma-separated numbers"),
    ("net.m", "4.5", "net.m: expected an integer, got '4.5'"),
])
def test_parse_error_names_its_key(key, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_mapping({"algorithm": "fast", key: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        apply_override(ExperimentConfig(), key, value)


def test_boolean_words_parse_only_for_bool_keys():
    cfg = config_from_mapping({"algorithm": "fast", "net.dynamic": "on",
                               "grouping.enabled": "no", "data.path": "on"})
    assert cfg.net.dynamic is True
    assert cfg.grouping.enabled is False
    assert cfg.data.path == "on"


@pytest.mark.parametrize("key, value", [
    ("epsilon", "nan"), ("epsilon", "inf"), ("epsilon", "-inf"), ("epsilon", "1e400"),
    ("mu", "nan"), ("net.rho", "nan"), ("kcif.beta", "inf"), ("grouping.eta1", "inf"),
    ("model.q", "1,nan"), ("data.initial", "-inf,1"),
])
def test_non_finite_number_rejected(key, value):
    mapping = {"algorithm": "dpcrowd_plus", "w": "5", "model.d": "2", key: value}
    with pytest.raises(ConfigError, match=rf"^{key} must be a finite number"):
        config_from_mapping(mapping)


def test_non_finite_number_rejected_on_direct_construction():
    with pytest.raises(ConfigError, match="^epsilon must be a finite number"):
        ExperimentConfig(epsilon=float("nan")).validate()
