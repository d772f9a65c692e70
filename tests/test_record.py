"""Frozen value records: construction, immutability, equality, copies and the module functions."""

import copy
import math
import pickle
from array import array

import numpy as np
import pytest

# cli and oracle between them import every module that defines a record
import fadecap.cli  # noqa: F401
import fadecap.oracle  # noqa: F401
from fadecap.channel import ChannelRealization
from fadecap.cli import SlopeFit, Sweep
from fadecap.config import BoundParams, ChannelConfig, GridSpec, SweepConfig
from fadecap.converse import ConverseStats
from fadecap.direct import DirectStats, LogUniformX2, SchemeParams
from fadecap.fading import Ar1Gaussian, IidGaussian, PathStats, ZeroPath
from fadecap.oracle import CheckReport, McEstimate
from fadecap.record import Record, asdict, fields, replace

LOG10 = math.log(10.0)
CHANNEL = ChannelConfig((IidGaussian(1.0), ZeroPath()), 1.0, 3.0 * LOG10)
VALID = {
    "IidGaussian": IidGaussian(0.5),
    "Ar1Gaussian": Ar1Gaussian(1.0, 0.5 + 0.25j),
    "ZeroPath": ZeroPath(),
    "PathStats": PathStats(0.0, None, None),
    "ChannelConfig": CHANNEL,
    "ChannelRealization": ChannelRealization(np.zeros((2, 3), dtype=complex), np.ones(3, dtype=complex)),
    "BoundParams": BoundParams(),
    "ConverseStats": ConverseStats(0.5, 1.0),
    "LogUniformX2": LogUniformX2(0.5, 1.0),
    "SchemeParams": SchemeParams(2, 3.0 * LOG10, 1),
    "DirectStats": DirectStats(-0.5772156649015329, 1.0, 1.5, 1.0, 1),
    "McEstimate": McEstimate(1.0, 0.1, 100),
    "CheckReport": CheckReport("check", 1.0, 1.0, 0.1, True),
    "GridSpec": GridSpec(20.0, 200.0, 19),
    "SweepConfig": SweepConfig(CHANNEL, BoundParams(xi=0.5), GridSpec(20.0, 200.0, 19), 1024, 0, "csv"),
    "Sweep": Sweep(array("d", [1.0]), array("d", [0.5]), array("d", [0.25]), array("q", [2])),
    "SlopeFit": SlopeFit(1.0, 0.0, 0.0),
}
NAMES = sorted(VALID)


class LogUniformTwin(Record):
    """LogUniformX2's fields under another class: equal values, still unequal."""

    log_min: float
    log_max: float


def assert_same_fields(got, want):
    """``got`` is a ``want`` with equal fields; arrays compared by dtype and elements."""
    assert type(got) is type(want)
    for name, value in asdict(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and np.array_equal(other, value), name
        else:
            assert type(other) is type(value) and other == value, name


def test_table_covers_every_record():
    assert len(VALID) == 17
    assert {cls.__qualname__ for cls in Record.__subclasses__() if cls.__module__.startswith("fadecap.")} == set(VALID)
    assert all(type(record).__qualname__ == name for name, record in VALID.items())


@pytest.mark.parametrize("name", NAMES)
class TestEveryRecord:
    def test_fields_are_the_annotations_in_order(self, name):
        record = VALID[name]
        assert fields(record) == fields(type(record)) == tuple(type(record).__annotations__)
        assert list(asdict(record)) == list(fields(record))

    def test_positional_and_keyword_construction_agree(self, name):
        record = VALID[name]
        values = asdict(record)
        assert_same_fields(type(record)(*values.values()), record)
        assert_same_fields(type(record)(**values), record)

    @pytest.mark.parametrize("attribute", ["field", "other"])
    def test_assignment_and_deletion_raise_naming_the_attribute(self, name, attribute):
        record = VALID[name]
        target = (fields(record) or ("alpha",))[0] if attribute == "field" else "not_a_field"
        before = repr(record)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{target}'$"):
            setattr(record, target, 1.0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{target}'$"):
            delattr(record, target)
        assert repr(record) == before

    def test_equality_and_hash_go_by_value(self, name):
        record = VALID[name]
        # a fresh copy of every value; numpy arrays have no truth value, so that twin shares them
        twin = replace(record) if name == "ChannelRealization" else pickle.loads(pickle.dumps(record))
        assert twin is not record and twin == record and not twin != record
        values = tuple(asdict(record).values())
        try:
            expected = hash(values)
        except TypeError:  # array fields: unhashable, as the tuple of the values is
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == expected
        assert record != values and record != object()

    def test_missing_unknown_and_repeated_arguments_raise(self, name):
        cls, values = type(VALID[name]), asdict(VALID[name])
        for missing in [field for field in values if not hasattr(cls, field)]:
            with pytest.raises(TypeError, match=f"missing required argument '{missing}'"):
                cls(**{k: v for k, v in values.items() if k != missing})
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(**values, bogus=1)
        with pytest.raises(TypeError, match=f"takes {len(values)} arguments but {len(values) + 1} were given"):
            cls(*values.values(), 1)
        if values:
            first = next(iter(values))
            with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
                cls(*values.values(), **{first: values[first]})

    def test_copy_and_pickle_round_trip(self, name):
        record = VALID[name]
        assert copy.copy(record) == record
        assert_same_fields(copy.deepcopy(record), record)
        assert_same_fields(pickle.loads(pickle.dumps(record)), record)


def test_different_classes_with_equal_values_are_unequal():
    assert LogUniformX2(0.5, 1.0) != ConverseStats(0.5, 1.0)
    assert not LogUniformX2(0.5, 1.0) == ConverseStats(0.5, 1.0)
    twin = LogUniformTwin(0.5, 1.0)
    assert twin != LogUniformX2(0.5, 1.0) and not LogUniformX2(0.5, 1.0) == twin
    assert hash(twin) == hash(LogUniformX2(0.5, 1.0)) and twin == LogUniformTwin(0.5, 1.0)
    assert IidGaussian(1.0) != (1.0,) and IidGaussian(1.0) != Ar1Gaussian(1.0, 0.0)
    assert ZeroPath() == ZeroPath() and hash(ZeroPath()) == hash(())


def test_unannotated_class_attributes_are_not_fields():
    assert fields(IidGaussian) == ("alpha",) and IidGaussian(2.0).a == 0.0
    assert fields(ZeroPath) == () and ZeroPath().alpha == 0.0
    assert asdict(IidGaussian(2.0)) == {"alpha": 2.0}


def test_class_attribute_defaults():
    assert BoundParams() == BoundParams(1.0, 0.5, 0.0, None)
    assert VALID["SweepConfig"].tau is None
    assert fields(BoundParams) == ("delta", "eta", "eps_const", "xi")


def test_post_init_may_coerce_through_object_setattr():
    config = ChannelConfig([IidGaussian(1.0)], 1.0, 0.0)
    assert config.path_specs == (IidGaussian(1.0),) and type(config.path_specs) is tuple


def test_replace_reruns_validation():
    assert replace(BoundParams(), xi=0.25) == BoundParams(xi=0.25)
    with pytest.raises(ValueError, match=r"^xi must lie in \(0, 1\], got 2\.0$"):
        replace(BoundParams(), xi=2.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        replace(BoundParams(), bogus=1.0)


def test_repr_is_that_of_the_dataclasses_it_replaced():
    assert repr(BoundParams()) == "BoundParams(delta=1.0, eta=0.5, eps_const=0.0, xi=None)"
    assert repr(GridSpec(20.0, 200.0, 19)) == "GridSpec(log10_snr_start=20.0, log10_snr_stop=200.0, points=19)"
    assert repr(ZeroPath()) == "ZeroPath()"
