"""The config classes' field specs: every field refuses a value outside its
spec with ``ConfigError``, whatever its type, and the manifest form of every
valid config reads back as the same config."""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcpd import (
    CandidatePolicy,
    ChangePointRule,
    ConfigError,
    Detector,
    DetectorConfig,
    HazardConfig,
    InputError,
    NigParams,
    PrunePolicy,
    SegmentSpec,
    run,
)
from streamcpd import cli
from streamcpd.cli import config_to_items, parse_config
from streamcpd.schema import field_spec

CONFIG_CLASSES = [
    DetectorConfig,
    NigParams,
    CandidatePolicy,
    HazardConfig,
    PrunePolicy,
    ChangePointRule,
    SegmentSpec,
]


def _specs(cls):
    return {f.name: field_spec(cls, f.name) for f in dataclasses.fields(cls)}


_INTERVAL = re.compile(r" in ([\[(])(\S+), (\S+)([\])])")


def _interval(spec):
    """Numbers in the interval a numeric spec declares; integers from its
    lower bound up, a few dozen at most, so a drawn class count stays small."""
    lo_bracket, lo, hi, hi_bracket = _INTERVAL.search(spec.domain).groups()
    lo, hi = float(lo), float(hi)
    if spec.domain.startswith("an integer"):
        start = int(lo) + (lo_bracket == "(")
        return st.integers(start, start + 30)
    bounds = {}
    if lo > -np.inf:
        bounds.update(min_value=lo, exclude_min=lo_bracket == "(")
    if hi < np.inf:
        bounds.update(max_value=hi, exclude_max=hi_bracket == ")")
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def _valid(spec):
    """Values in a spec's domain, of the types the manifest reads back."""
    if spec.domain == "a bool":
        return st.booleans()
    if spec.domain.startswith("one of "):  # a choice
        return st.sampled_from(spec.domain[len("one of "):].split(", "))
    if isinstance(spec.item, type):  # a nested config
        return valid_configs(spec.item)
    if spec.item is not None:  # a pair
        return st.tuples(_valid(spec.item), _valid(spec.item))
    values = _interval(spec)
    return st.none() | values if spec.domain.endswith("or None") else values


def _build_or_none(cls, kwargs):
    try:
        return cls(**kwargs)
    except ConfigError:  # a rule across fields: both prune fields set
        return None


def valid_configs(cls):
    """Configs of ``cls``: each field at its default or a value from its
    domain, less those that break a rule across fields."""
    values = {}
    for f in dataclasses.fields(cls):
        values[f.name] = _valid(field_spec(cls, f.name))
        if f.default is not dataclasses.MISSING:
            values[f.name] |= st.just(f.default)
    built = st.fixed_dictionaries(values).map(lambda kwargs: _build_or_none(cls, kwargs))
    return built.filter(lambda cfg: cfg is not None)


def _stored(spec, value):
    """What a field of ``spec`` stores for the valid ``value``: the Python
    value it equals, of the spec's type."""
    if spec.domain.startswith("a real"):
        return value if value is None else float(value)
    if spec.domain.startswith("an integer"):
        return int(value)
    if spec.domain == "a bool":
        return bool(value)
    if spec.item is not None and not isinstance(spec.item, type):  # a pair
        return tuple(_stored(spec.item, v) for v in value)
    return value


def _typed(value):
    """``value`` as ``(type, value)``, item by item in a tuple."""
    return tuple(map(_typed, value)) if isinstance(value, tuple) else (type(value), value)


# Values of every type a caller might pass by mistake, or a numpy scalar in
# place of a Python number.
_MIXED = st.one_of(
    st.text(max_size=6),
    st.none(),
    st.booleans(),
    st.floats(),
    st.sampled_from([np.nan, np.inf, -np.inf, 0, 1, -1, 0.0, 1.0, 2**64, 10**400]),
    st.integers(-3, 30),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-3, 30)),
    st.builds(np.bool_, st.booleans()),
    st.tuples(st.floats(), st.floats()),
    st.tuples(st.floats(0.1, 2), st.text(max_size=2)),
    st.lists(st.floats(0.1, 2), max_size=2),
    st.lists(st.sampled_from(["infinite", "none", "map-drop"]), max_size=1),
    st.just({}),
    st.sampled_from([cls() for cls in CONFIG_CLASSES if cls is not SegmentSpec]),
)


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=300)
@given(data=st.data())
def test_any_field_value_is_valid_or_a_config_error(cls, data):
    specs = _specs(cls)
    mixed = data.draw(st.sets(st.sampled_from(sorted(specs)), max_size=2), label="mixed")
    kwargs = {}
    for name, spec in specs.items():
        if name in mixed:
            kwargs[name] = data.draw(_MIXED, label=name)
        elif name == "mode" or cls is SegmentSpec or data.draw(st.booleans()):
            kwargs[name] = data.draw(_valid(spec), label=name)
    try:
        cfg = cls(**kwargs)
    except ConfigError:
        return
    for name, value in kwargs.items():
        # Stored as the Python value it equals, of its spec's type.
        assert _typed(getattr(cfg, name)) == _typed(_stored(specs[name], value))
    if cls is DetectorConfig:
        xs = data.draw(st.lists(st.floats(-10, 10), min_size=3, max_size=3), label="xs")
        _build_and_step(cfg, xs)


def _build_and_step(cfg, xs):
    # Every config the field specs accept builds a detector.
    det = Detector(cfg)
    for x in xs:
        try:
            det.step(x)
        except InputError as exc:
            # Rates, variances or a prior near either end of the floats
            # overflow the model's arithmetic on ordinary observations: the
            # step is refused, with the detector's own error.
            assert "overflows the" in str(exc)
            return


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": "1"},
        {"alpha": True},
        {"decay": "0.1"},
        {"var_floor": None},
        {"eta_init": (1.0, "x")},
        {"mode": ["infinite"]},
        {"hazard": 5},
        {"mode": "baseline", "baseline": {}},
        {"candidate": NigParams()},
    ],
    ids=repr,
)
def test_mixed_type_detector_config_is_config_error(kwargs):
    # Each raised a raw TypeError or AttributeError, at construction, at
    # Detector(...) or at the first step, or was accepted.
    with pytest.raises(ConfigError):
        Detector(DetectorConfig(**kwargs)).step(0.0)


@pytest.mark.parametrize("kwargs", [{"length": True}, {"mu": None}, {"var": "1"}], ids=repr)
def test_mixed_type_segment_is_config_error(kwargs):
    with pytest.raises(ConfigError):
        SegmentSpec(**({"length": 5, "mu": 0.0, "var": 1.0} | kwargs))


def test_refusal_names_the_class_and_field():
    with pytest.raises(ConfigError, match=r"HazardConfig\.lam must be a real number in \[1, inf\)"):
        HazardConfig("100")


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg") / "manifest"


@settings(max_examples=200)
@given(cfg=valid_configs(DetectorConfig))
def test_manifest_items_read_back_as_the_same_config(config_file, cfg):
    # Every key's spec formats its value and parses it back unchanged.
    config_file.write_text("".join(f"{k}={v}\n" for k, v in config_to_items(cfg)))
    assert parse_config(config_file=config_file)[0] == cfg


def test_config_leaves_and_manifest_keys_match_one_to_one():
    # Every settable value has a manifest key and every key sets one value.
    leaves = []
    for f in dataclasses.fields(DetectorConfig):
        item = field_spec(DetectorConfig, f.name).item
        if isinstance(item, type):  # a nested config
            leaves += [(f.name, g.name) for g in dataclasses.fields(item)]
        elif item is not None:  # a pair
            leaves += [(f.name, 0), (f.name, 1)]
        else:
            leaves.append((f.name, None))
    keyed = [(field, part) for field, part, *_ in cli._KEYS.values()]
    assert Counter(leaves) == Counter(keyed)
    assert len(set(keyed)) == len(keyed) == 23


def test_detector_computes_with_its_config_as_given():
    cfg = DetectorConfig(alpha=np.float32(0.7), prune=PrunePolicy.top_m(np.int64(20)))
    assert type(cfg.alpha) is float and type(cfg.prune.max_live) is int
    assert Detector(cfg).cfg is cfg


def _python(v):
    """``v`` with every numpy scalar, also inside nested configs and
    tuples, replaced by the Python number it equals."""
    if dataclasses.is_dataclass(v):
        fields = dataclasses.fields(v)
        return dataclasses.replace(v, **{f.name: _python(getattr(v, f.name)) for f in fields})
    if isinstance(v, tuple):
        return tuple(map(_python, v))
    return v.item() if isinstance(v, np.generic) else v


def _outputs(result):
    return [
        (s.t, s.z_star, s.k_t, s.r_star, s.cp_flag, s.responsibilities.tobytes(),
         s.rl_posterior.runs.tobytes(), s.rl_posterior.probs.tobytes())
        for s in result.steps
    ]


_HUGE_CANDIDATE = {
    "var_floor": np.float32(1.0),
    "candidate": CandidatePolicy(var_init=3.4028235677973366e38),
}


@pytest.mark.parametrize(
    "mode, kwargs",
    [
        # float32 values: t + alpha and its kin ran in float32, and a float32
        # var_floor next to a var_init beyond float32's range warned in the
        # cast at the first step.
        ("infinite", {"alpha": np.float32(0.7)}),
        ("fixed-k", {"dirichlet_beta": np.float32(0.3)}),
        ("infinite", {"decay": np.float32(0.05)}),
        ("baseline", {"baseline": NigParams(kappa=np.float32(0.3))}),
        ("infinite", _HUGE_CANDIDATE),
        ("fixed-k", _HUGE_CANDIDATE),
        # float64 and int64 values, in every kind of field.
        ("infinite", {"alpha": np.float64(0.7), "hazard": HazardConfig(np.float64(50.0)),
                      "eta_init": (np.float64(0.5), np.float64(0.01))}),
        ("fixed-k", {"k_fixed": np.int64(4), "prune": PrunePolicy.top_m(np.int64(20)),
                     "log_var_update": np.bool_(True)}),
        ("baseline", {"baseline": NigParams(mu=np.float64(0.5), a=np.float64(2.5)),
                      "cp_rule": ChangePointRule("mass-near-zero", mass_window=np.int64(5)),
                      "prune": PrunePolicy.threshold(np.float64(1e-10))}),
    ],
    ids=lambda v: v if isinstance(v, str) else ",".join(v),
)
def test_numpy_config_values_give_the_outputs_of_python_numbers(mode, kwargs):
    rng = np.random.default_rng(4)
    series = np.concatenate([rng.normal(0.0, 1.0, 150), rng.normal(5.0, 2.0, 150)])
    cfg = DetectorConfig(mode=mode, **kwargs)
    assert _outputs(run(series, cfg)) == _outputs(run(series, _python(cfg)))
