"""The record contract of the library's result types.

Every result type except ``GeodesicGraphResult`` is an immutable record
over its annotated fields (``lie_algebra._Record``), not a dataclass.
"""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import finslergo
from finslergo import (Check, ClosedFormReport, GraphBatch, JacobiReport,
                       MatrixRealization, Report, S7Space, ScanReport)


def _values(s7):
    """Field values, in field order, for one record of each class."""
    y, xi = np.ones((2, 7)), np.zeros((2, 4))
    rank, residual = np.array([4, 4]), np.array([1e-16, 2e-16])
    real = s7.realization
    return {
        Check: ("i", True, 0.5, 1.0, (0.25, 2.0)),
        Report: ((Check("i", True, 0.5, 1.0),),),
        JacobiReport: (0.0, 1e-12),
        GraphBatch: (y, xi, residual, rank, np.array([3.0, np.inf])),
        ScanReport: (2e-16, y[0], y, residual, ("X1", "X2"), 3),
        MatrixRealization: (real.matrices, real.base_point),
        S7Space: (s7.space, real),
        ClosedFormReport: (10, 1e-8, 1e-15, y[0], xi[0], 2e-15, y[1], xi[1],
                           9),
    }


@pytest.fixture(scope="module")
def records(s7):
    return _values(s7)


CLASSES = [Check, Report, JacobiReport, GraphBatch, ScanReport,
           MatrixRealization, S7Space, ClosedFormReport]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_by_position_and_keyword(cls, records):
    values = records[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    mixed = cls(values[0], **dict(zip(cls._fields[1:], values[1:])))
    for rec in (by_position, by_keyword, mixed):
        assert tuple(getattr(rec, f) for f in cls._fields) == values
    assert by_position == by_keyword == mixed
    assert tuple(inspect.signature(cls).parameters) == cls._fields


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_missing_or_unknown_fields_raise_type_error(cls, records):
    values = records[cls]
    kwargs = dict(zip(cls._fields, values))
    required = [f for f in cls._fields if not hasattr(cls, f)]
    with pytest.raises(TypeError, match=f"missing .*'{required[-1]}'"):
        cls(*values[:len(required) - 1])
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(**kwargs, bogus=1)
    with pytest.raises(TypeError, match="positional"):
        cls(*values, 1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{cls._fields[0]: values[0]})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_are_immutable(cls, records):
    rec = cls(*records[cls])
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, name, 1)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, name) is records[cls][0]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_repr_cover_the_shown_fields(cls, records):
    values = records[cls]
    rec = cls(*values)
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{f}={getattr(rec, f)!r}" for f in cls._fields) + ")"
    assert rec == cls(*values)
    assert rec != values  # another type never compares equal
    assert not dataclasses.is_dataclass(rec)
    # arrays compare by value: equal copies used to raise "truth value of
    # an array ... is ambiguous"
    copies = [v.copy() if isinstance(v, np.ndarray) else v for v in values]
    assert rec == cls(*copies) and cls(*copies) == rec
    arrays = [i for i, v in enumerate(values) if isinstance(v, np.ndarray)]
    if arrays:
        copies[arrays[-1]] = values[arrays[-1]] + 1.0
        assert rec != cls(*copies)
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)


def test_check_defaults_eq_and_hash():
    c = Check("i", True, 0.5, 1.0)
    assert c.witness == ()
    assert repr(c) == ("Check(name='i', passed=True, worst=0.5, tol=1.0, "
                       "witness=())")
    assert c == Check(name="i", passed=True, worst=0.5, tol=1.0, witness=())
    assert c != Check("i", True, 0.5, 2.0)
    assert hash(c) == hash(Check(name="i", passed=True, worst=0.5, tol=1.0))
    assert len({c, Check("i", True, 0.5, 1.0), Check("ii", True, 0, 1)}) == 2
    assert pickle.loads(pickle.dumps(c)) == c == copy.deepcopy(c)


def test_keyword_dict_is_not_shared_with_the_caller():
    values = {"max_violation": 1.0, "tol": 2.0}
    report = JacobiReport(**values)
    values["max_violation"] = 9.0
    assert report == JacobiReport(1.0, 2.0)


def test_matrix_realization_still_checks_and_converts():
    with pytest.raises(ValueError, match="stack"):
        MatrixRealization(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="base point"):
        MatrixRealization(matrices=np.zeros((2, 3, 3)), base_point=[1, 0])
    real = MatrixRealization(matrices=[[[0, 1], [-1, 0]]], base_point=[1, 0])
    assert real.matrices.dtype == float and real.base_point.dtype == float
    assert real.dim == 1


@pytest.mark.parametrize("field", ["matrices", "base_point"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_realization_rejects_non_finite_input(s7, field, bad):
    values = {"matrices": s7.realization.matrices.copy(),
              "base_point": s7.realization.base_point.copy()}
    values[field].flat[-1] = bad  # a NaN base point used to give NaN orbits
    with pytest.raises(ValueError, match="finite"):
        MatrixRealization(**values)


def test_only_geodesic_graph_result_is_a_dataclass():
    code = """import dataclasses, finslergo
print(sorted(n for n in finslergo.__all__
             if dataclasses.is_dataclass(getattr(finslergo, n))))"""
    src = os.path.dirname(os.path.dirname(finslergo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.strip() == "['GeodesicGraphResult']"
