"""The value types' contract: constructors, equality, hashing, immutability, errors."""

import pytest

from workmix import (
    AggregateParams,
    Allocation,
    BetaShape,
    BoundaryPoint,
    CategoryParams,
    ContinuousParams,
    DelegationTrace,
    DomainError,
    GridCell,
    GridSpec,
    Line,
    ParamError,
    ReplicatorParams,
    ReplicatorPoint,
    SharePoint,
    TaskUniverse,
)
from workmix.cli import OutputSpec, RunResult, ScenarioConfig


def _machine(t):
    return (0.5 + t, 0.5 + t)


_CATEGORY = CategoryParams(0.3, 1.0, 0.05, 0.8)

# (type, field names in positional order, a value for each, how many are required)
TYPES = [
    (AggregateParams, ("alpha", "beta", "x0", "start_year"), (0.1, 0.05, 0.1, 2030), 3),
    (SharePoint, ("year", "share"), (2025, 0.5), 2),
    (
        CategoryParams,
        ("x0", "machine_intercept", "machine_growth", "human_payoff"),
        (0.3, 1.0, 0.05, 0.8),
        4,
    ),
    (
        ReplicatorParams,
        ("routine", "complex", "sensitivity", "w_routine", "start_year"),
        (_CATEGORY, CategoryParams(0.05, 0.5, 0.02, 1.2), 0.2, 0.6, 2030),
        4,
    ),
    (ReplicatorPoint, ("year", "x_routine", "x_complex", "x_total"), (2025, 0.3, 0.05, 0.2), 4),
    (
        ContinuousParams,
        ("alpha_h", "beta_h", "alpha_m", "beta_m", "gamma", "shape", "start_year"),
        (1.0, 1.5, 1.3704, 2.5, 0.04336, BetaShape(2.0, 5.0), 2030),
        6,
    ),
    (BoundaryPoint, ("year", "theta", "share"), (2025, 0.2, 0.3), 3),
    (BetaShape, ("p", "q"), (2.0, 5.0), 2),
    (Line, ("intercept", "slope"), (1.0, 1.5), 2),
    (
        TaskUniverse,
        ("thetas", "human", "limit", "machine"),
        ((0.2, 0.4), (1.0, 1.0), (2.0, 2.0), _machine),
        4,
    ),
    (Allocation, ("automated",), (frozenset({0, 2}),), 0),
    (DelegationTrace, ("counts", "order", "converged_at"), ((0, 1, 2), (1, 0), 2), 3),
    (
        GridSpec,
        (
            "p_values", "q_values", "gamma_values", "horizon_years",
            "initial_share_target", "alpha_h", "beta_h", "beta_m", "start_year",
        ),
        ((1.5, 2.0), (5,), (0.03,), 20, 0.1, 1.1, 1.6, 2.6, 2030),
        5,
    ),
    (
        GridCell,
        ("p", "q", "gamma", "alpha_m_used", "final_share", "cross50_year"),
        (1.5, 5, 0.03, 1.2, 0.6, 2040),
        6,
    ),
    (OutputSpec, ("format", "path", "precision"), ("svg", "out.svg", 3), 0),
    (
        ScenarioConfig,
        ("model", "params", "output"),
        ("aggregate", {"alpha": 0.1}, OutputSpec("svg")),
        2,
    ),
    (RunResult, ("model", "data", "config"), ("aggregate", (SharePoint(2025, 0.5),), None), 2),
]

DEFAULTS = {
    AggregateParams: (2025,),
    ReplicatorParams: (2025,),
    ContinuousParams: (2025,),
    GridSpec: (1.0, 1.5, 2.5, 2025),
    Allocation: (frozenset(),),
    OutputSpec: ("csv", None, 6),
    ScenarioConfig: (OutputSpec(),),
    RunResult: (None,),
}

# The types whose __new__ checks its arguments, and so holds their defaults.
VALIDATED = {AggregateParams, SharePoint, CategoryParams, ReplicatorParams, ContinuousParams,
             GridSpec}

_IDS = [cls.__name__ for cls, *_ in TYPES]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _other(value):
    """A valid value for the same field that differs from ``value``."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if callable(value):
        return lambda t: value(t)
    return None if value else 1


@pytest.mark.parametrize("cls,names,values,required", TYPES, ids=_IDS)
class TestConstruction:
    def test_positional_and_keyword_agree(self, cls, names, values, required):
        positional = cls(*values)
        keyword = cls(**dict(zip(names, values)))
        for name, value in zip(names, values):
            assert getattr(positional, name) == value, name
            assert getattr(keyword, name) == value, name
        assert positional == keyword

    def test_defaults(self, cls, names, values, required):
        defaults = DEFAULTS.get(cls, ())
        assert len(defaults) == len(names) - required
        made = cls(*values[:required])
        for name, default in zip(names[required:], defaults):
            assert getattr(made, name) == default, name
        assert made == cls(*values[:required], *defaults)

    def test_too_many_arguments(self, cls, names, values, required):
        with pytest.raises(TypeError):
            cls(*values, values[0])

    def test_equal_copies_hash_alike(self, cls, names, values, required):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        if all(map(_hashable, values)):
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_differing_field_makes_unequal(self, cls, names, values, required):
        assert cls(*values) != cls(*values[:-1], _other(values[-1]))

    def test_fields_cannot_be_assigned(self, cls, names, values, required):
        made = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(made, name, values[0])
            with pytest.raises(AttributeError):
                delattr(made, name)
            assert getattr(made, name) == values[names.index(name)]
        with pytest.raises(AttributeError):
            made.extra = 1

    def test_tuple_helpers(self, cls, names, values, required):
        assert cls._fields == names
        if cls in (BetaShape, TaskUniverse):
            return
        made = cls(*values)
        assert made._asdict() == dict(zip(names, values))
        assert type(made._replace()) is cls and made._replace() == made
        defaults = dict(zip(names[required:], DEFAULTS.get(cls, ())))
        assert cls._field_defaults == ({} if cls in VALIDATED else defaults)

    def test_repr_names_every_field(self, cls, names, values, required):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(cls(*values)) == f"{cls.__name__}({fields})"

    def test_all_but_two_are_tuples_of_their_fields(self, cls, names, values, required):
        # BetaShape and TaskUniverse keep their fields as attributes; every
        # other type is a namedtuple, equal to the plain tuple of its fields.
        made = cls(*values)
        if cls in (BetaShape, TaskUniverse):
            assert made != tuple(values) and not isinstance(made, tuple)
        else:
            assert made == tuple(values) and list(made) == list(values)


class TestBetaShape:
    def test_repr_and_derived_values(self):
        shape = BetaShape(2.0, 5.0)
        assert repr(shape) == "BetaShape(p=2.0, q=5.0)"
        assert shape.log_beta == pytest.approx(-3.4011973816621555, abs=1e-14)

    def test_derived_values_take_no_argument_and_cannot_be_assigned(self):
        with pytest.raises(TypeError):
            BetaShape(2.0, 5.0, 1.0)
        with pytest.raises(TypeError):
            BetaShape(2.0, 5.0, log_beta=1.0)
        shape = BetaShape(2.0, 5.0)
        with pytest.raises(AttributeError):
            shape.log_beta = 0.0

    def test_equality_ignores_derived_values(self):
        shape = BetaShape(2.0, 5.0)
        object.__setattr__(shape, "log_beta", 0.0)
        assert shape == BetaShape(2.0, 5.0)
        assert hash(shape) == hash(BetaShape(2.0, 5.0))
        assert BetaShape(2.0, 5.0) != BetaShape(5.0, 2.0)
        assert BetaShape(2.0, 5.0) != (2.0, 5.0)


# (constructor call, error type, exact message)
ERRORS = [
    (lambda: AggregateParams(1.5, 0.05, 0.1), ParamError, "alpha must lie in [0, 1], got 1.5"),
    (lambda: AggregateParams(0.1, -0.5, 0.1), ParamError, "beta must lie in [0, 1], got -0.5"),
    (lambda: AggregateParams(0.0, 0.0, 0.1), ParamError, "alpha + beta must be positive"),
    (
        lambda: AggregateParams(1.0, 1.0, 0.1),
        ParamError,
        "alpha + beta must be below 2 for a stable iteration",
    ),
    (lambda: AggregateParams(0.1, 0.05, 2.0), ParamError, "x0 must lie in [0, 1], got 2.0"),
    (lambda: SharePoint(2025, 1.5), ParamError, "share must lie in [0, 1], got 1.5"),
    (lambda: CategoryParams(-0.1, 1.0, 0.0, 1.0), ParamError, "x0 must lie in [0, 1], got -0.1"),
    (
        lambda: ReplicatorParams(_CATEGORY, _CATEGORY, 0.0, 0.5),
        ParamError,
        "sensitivity must be positive, got 0.0",
    ),
    (
        lambda: ReplicatorParams(_CATEGORY, _CATEGORY, 0.2, 1.5),
        ParamError,
        "w_routine must lie in [0, 1], got 1.5",
    ),
    (
        lambda: ContinuousParams(1.0, 0.0, 1.0, 2.5, 0.04, BetaShape(2.0, 5.0)),
        ParamError,
        "beta_h must be positive, got 0.0",
    ),
    (
        lambda: ContinuousParams(1.0, 1.5, 1.0, -1.0, 0.04, BetaShape(2.0, 5.0)),
        ParamError,
        "beta_m must be positive, got -1.0",
    ),
    (
        lambda: ContinuousParams(1.0, 1.5, 1.0, 2.5, 0.0, BetaShape(2.0, 5.0)),
        ParamError,
        "gamma must be positive, got 0.0",
    ),
    (
        lambda: BetaShape(0.0, 5.0),
        DomainError,
        "beta shape parameters must be positive, got p=0.0, q=5.0",
    ),
    (
        lambda: BetaShape(2.0, float("inf")),
        DomainError,
        "beta shape parameters must be finite, got p=2.0, q=inf",
    ),
    (
        lambda: TaskUniverse((0.2, 0.4), (1.0,), (2.0, 2.0), _machine),
        ParamError,
        "thetas, human and limit need one value per task",
    ),
    (
        lambda: TaskUniverse((0.2, 1.4), (1.0, 1.0), (2.0, 2.0), _machine),
        ParamError,
        "task 1 has theta 1.4 outside [0, 1]",
    ),
    (lambda: GridSpec((), (5,), (0.03,), 20, 0.1), ParamError, "p_values must be non-empty"),
    (
        lambda: GridSpec((1.5,), (5, 5), (0.03,), 20, 0.1),
        ParamError,
        "q_values must be strictly ascending, got (5, 5)",
    ),
    (
        lambda: GridSpec((1.5,), (5,), (-0.03,), 20, 0.1),
        ParamError,
        "gamma_values must be positive, got (-0.03,)",
    ),
    (
        lambda: GridSpec((1.5,), (5,), (0.03,), 0, 0.1),
        ParamError,
        "horizon_years must be >= 1, got 0",
    ),
    (
        lambda: GridSpec((1.5,), (5,), (0.03,), 20, 1.0),
        ParamError,
        "initial_share_target must lie in (0, 1), got 1.0",
    ),
]


@pytest.mark.parametrize("make,error,message", ERRORS, ids=range(len(ERRORS)))
def test_validation_error_type_and_message(make, error, message):
    with pytest.raises(error) as excinfo:
        make()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_derived_members_still_work():
    assert ReplicatorParams(_CATEGORY, _CATEGORY, 0.2, 0.6).w_complex == pytest.approx(0.4)
    assert _CATEGORY.payoff_gap(2) == pytest.approx(0.3)
    assert Allocation(frozenset({1, 2})).fraction(4) == 0.5
    trace = DelegationTrace((0, 1, 2), (1, 0), 2)
    assert trace.final == Allocation(frozenset({0, 1}))
    assert trace.iterations[1] == Allocation(frozenset({1}))
    assert len(TaskUniverse((0.2, 0.4), (1.0, 1.0), (2.0, 2.0), _machine)) == 2
    assert Line(1.0, 1.5)(2.0) == 4.0
