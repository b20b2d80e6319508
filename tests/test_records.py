"""Frozen records: each record class behaves as its frozen dataclass did."""

import dataclasses
from fractions import Fraction as F

import pytest

from pelab import family as fam
from pelab import geom, limits
from pelab.audits import run_audits
from pelab.family import FamilyParams
from pelab.limits import RescaledProfile
from pelab.records import record

EDGE = fam.cpn_catalogue(1, 2, F(5, 2))
CONIC = fam.cpn_catalogue(2, 3, 1)
PROFILE = RescaledProfile(1, 2, F(2, 3))

# One instance of every record class, built by the library itself.
INSTANCES = {
    "FamilyParams": lambda: EDGE,
    "EdgeModel": lambda: fam.edge_model(EDGE, fam.solve_profile(EDGE)),
    "ConicModel": lambda: fam.conic_model(CONIC, fam.solve_profile(CONIC)),
    "RescaledProfile": lambda: PROFILE,
    "Rho1Limit": lambda: limits.rho1_limit(1),
    "LimitComparison": lambda: limits.limit_comparison(1, [F(1, 10), F(1, 100)], [F(1), F(3, 2), F(2)]),
    "AuditRow": lambda: run_audits()[0],
    "ChartMetric": lambda: geom.page_pope_chart(EDGE),
    "CurvatureReport": lambda: geom.curvature_reports(geom.page_pope_chart(EDGE), [(3.0, 1.0, 0.3, -0.2)], -3.0),
}
# Fields that __post_init__ computes instead of taking them as arguments.
COMPUTED = {"CurvatureReport": ("symmetry_max", "bianchi_max")}
# Records with an unhashable field (a dict, an array): hashing raises, as it
# did for the dataclass.
UNHASHABLE = {"LimitComparison", "CurvatureReport"}


@pytest.fixture(params=INSTANCES, ids=INSTANCES)
def instance(request):
    obj = INSTANCES[request.param]()
    assert type(obj).__name__ == request.param
    return obj


def _fields(obj):
    return list(type(obj).__annotations__)


def _init_fields(obj):
    return [name for name in _fields(obj) if name not in COMPUTED.get(type(obj).__name__, ())]


def _dataclass_twin(obj):
    """The same fields and values in a frozen dataclass, as the reference."""
    twin = dataclasses.make_dataclass(type(obj).__name__, _fields(obj), frozen=True)
    return twin(*(getattr(obj, name) for name in _fields(obj)))


def test_every_record_class_is_covered():
    import pelab.audits

    classes = {
        name
        for module in (fam, limits, pelab.audits, geom)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and "__setattr__" in vars(obj)
    }
    assert classes == set(INSTANCES)


def test_assignment_and_deletion_raise(instance):
    name = _fields(instance)[0]
    value = getattr(instance, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(instance, name, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(instance, name)
    with pytest.raises(AttributeError):
        instance.not_a_field = 1
    assert getattr(instance, name) is value


def test_equal_fields_give_equal_records_and_hashes(instance):
    cls = type(instance)
    values = [getattr(instance, name) for name in _init_fields(instance)]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(_init_fields(instance), values)))
    assert by_position == instance and by_keyword == instance
    assert not by_position != instance
    assert instance != _dataclass_twin(instance)  # another class never compares equal
    if cls.__name__ in UNHASHABLE:
        for obj in (instance, by_position):
            with pytest.raises(TypeError):
                hash(obj)
    else:
        assert hash(by_position) == hash(by_keyword) == hash(instance) == hash(_dataclass_twin(instance))


def test_repr_matches_the_dataclass_format(instance):
    assert repr(instance) == repr(_dataclass_twin(instance))


def test_wrong_arity_raises_type_error(instance):
    cls = type(instance)
    names = _init_fields(instance)
    values = [getattr(instance, name) for name in names]
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, values[0])
    with pytest.raises(TypeError, match=f"missing required arguments: '{names[0]}'"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    for name in COMPUTED.get(cls.__name__, ()):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            cls(*values, **{name: 0.0})


def test_equal_params_share_one_profile_cache_entry():
    fam._profile.cache_clear()
    by_position = FamilyParams(3, F(7, 2), F(2, 5), F(-11, 3), F(9, 4))
    by_keyword = FamilyParams(n=3, lam=F(7, 2), c=F(2, 5), Lambda=F(-11, 3), r1=F(9, 4))
    coerced = FamilyParams(3, "7/2", F(2, 5), F(-11, 3), "9/4")
    assert by_position == by_keyword == coerced
    assert fam.solve_profile(by_position) is fam.solve_profile(by_keyword) is fam.solve_profile(coerced)
    info = fam._profile.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 0}, "n must be a positive integer, got 0"),
        ({"n": 1.0}, "n must be a positive integer, got 1.0"),
        ({"lam": 0}, "lam must be > 0, got 0"),
        ({"c": F(-1, 2)}, "c must be > 0, got -1/2"),
        ({"Lambda": 3}, "Lambda must be < 0, got 3"),
        ({"r1": F(1, 2)}, "r1 must be >= 1, got 1/2"),
    ],
)
def test_family_params_validation(kwargs, message):
    with pytest.raises(ValueError) as exc:
        FamilyParams(**{"n": 1, "lam": 2, "c": 1, "Lambda": -3, "r1": 1, **kwargs})
    assert str(exc.value) == message


def test_limit_profile_validation():
    with pytest.raises(ValueError) as exc:
        RescaledProfile(1, 2, -1)
    assert str(exc.value) == "rho1_sq must be >= 0, got -1"
    assert RescaledProfile(1, 2, "2/3") == PROFILE


@pytest.mark.parametrize("lam", [0, -2])
def test_limit_profile_rejects_a_non_positive_lambda(lam):
    # U = (lam/(2n+2)) (1 - (rho1/rho)^(2n+2)) is not a metric coefficient for lam <= 0
    with pytest.raises(ValueError) as exc:
        RescaledProfile(1, lam, F(2, 3))
    assert str(exc.value) == f"lam must be > 0, got {lam}"


def test_post_init_is_looked_up_at_call_time(monkeypatch):
    calls = []
    checks = geom.CurvatureReport.__post_init__

    def traced(self):
        calls.append(self.point)
        checks(self)

    monkeypatch.setattr(geom.CurvatureReport, "__post_init__", traced)
    report = geom.curvature_reports(geom.page_pope_chart(EDGE), [(3.0, 1.0, 0.3, -0.2)], -3.0)
    assert calls == [report.point]
    assert report.symmetry_max < 1e-8 and report.bianchi_max < 1e-8


@record
class Pair:
    left: int
    right: str = "r"


def test_defaults_and_a_record_without_post_init():
    assert Pair(1) == Pair(left=1, right="r") and repr(Pair(1)) == "Pair(left=1, right='r')"
    assert Pair(1, "s") != Pair(1) and Pair(1).__eq__(1) is NotImplemented
    assert Pair.__init__.__qualname__ == "Pair.__init__"
    with pytest.raises(TypeError, match="missing required arguments: 'left'"):
        Pair()
