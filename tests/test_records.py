import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import weylcalc
from weylcalc import (
    EMPTY,
    DiagramAutomorphism,
    DimValue,
    GammaDescriptor,
    NegativeDimension,
    StraightClass,
    build_root_datum,
    finite,
    fw_simple,
    from_parts,
)
from weylcalc.affweyl import EtaDecomposition
from weylcalc.classes import ConjugationStep, MinimizationResult, UxDecomposition
from weylcalc.oracle import Ball

SL3 = build_root_datum("SL3")
S1, S2 = from_parts(SL3, (0, 0), [0]), from_parts(SL3, (1, 0), [1])
U1 = fw_simple(SL3, 0)
CLS = StraightClass((0, 0), (Fraction(1, 2), Fraction(1, 2)), length=2, defect=0)

# Each record with its fields in order; Ball's dicts and lists make it
# unhashable, as its dicts made the dataclass.
RECORDS = [
    (DiagramAutomorphism, {"perm": (1, 0), "matrix": ((0, 1), (1, 0))}),
    (StraightClass, {"kappa": (0, 0), "nu_bar": (Fraction(1, 2), Fraction(1, 2)), "length": 2, "defect": 0}),
    (ConjugationStep, {"label": 1, "before": S1, "after": S2}),
    (MinimizationResult, {"w_min": S1, "path": (), "held": 3}),
    (UxDecomposition, {"u": S1, "x": S2, "K": (1,), "witness": S2, "held": 4}),
    (DimValue, {"dim": 3}),
    (GammaDescriptor, {"straight_class": CLS, "springer_dim": None, "d_gamma": 2, "c_gamma": 1}),
    (Ball, {"radius": 1, "elements": {}, "distances": {}, "levels": [], "heads": [], "rows": {}}),
    (EtaDecomposition, {"x": U1, "mu": (1, 0), "y": U1, "eta": U1 * U1}),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_a_record_is_a_frozen_value(record, fields):
    """Positional and keyword construction agree; fields cannot be assigned
    or deleted; equal fields give equal records and equal hashes; a record
    is never equal to the tuple of its fields or to another record type."""
    rec = record(**fields)
    twin = record(*fields.values())
    assert rec == twin and not rec != twin and copy.copy(rec) == rec
    assert all(getattr(rec, name) == value for name, value in fields.items())
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert not hasattr(rec, "__dict__")
    if record is Ball:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin)
    assert rec != tuple(fields.values())
    others = [r(**f) for r, f in RECORDS if r is not record]
    assert all(rec != other and other != rec for other in others)


def test_record_reprs():
    assert repr(EMPTY) == "Empty"
    assert repr(finite(3)) == "Finite(3)"
    assert repr(CLS) == "StraightClass(kappa=[0, 0], nu=(1/2,1/2), l=2, def=0)"
    assert repr(DiagramAutomorphism((1, 0), ((0, 1), (1, 0)))) == (
        "DiagramAutomorphism(perm=(1, 0), matrix=((0, 1), (1, 0)))")


def test_a_straight_class_is_equal_by_its_pair_key():
    twin = StraightClass(CLS.kappa, CLS.nu_bar, length=CLS.length + 2, defect=1)
    assert twin == CLS and hash(twin) == hash(CLS)
    assert twin.pair_key == CLS.pair_key == ((0, 0), ((1, 2), (1, 2)))
    assert CLS != StraightClass((1, 0), CLS.nu_bar, length=2, defect=0)
    assert pickle.loads(pickle.dumps(twin)).length == twin.length


def test_dim_values_compare_by_dim():
    assert DimValue(None) == EMPTY and DimValue(0) != EMPTY
    assert finite(2) + 1 == DimValue(3) and EMPTY + 1 == EMPTY
    assert pickle.loads(pickle.dumps(EMPTY)) == EMPTY


@pytest.mark.parametrize(
    "kwargs, error, match",
    [
        ({}, ValueError, "needs springer_dim or both d_gamma and c_gamma"),
        ({"d_gamma": 2}, ValueError, "needs springer_dim or both d_gamma and c_gamma"),
        ({"springer_dim": -1}, NegativeDimension, "springer_dim must be nonnegative"),
    ],
)
def test_gamma_descriptor_checks_its_fields(kwargs, error, match):
    with pytest.raises(error, match=match):
        GammaDescriptor(CLS, **kwargs)


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """Start-up guard: both modules pull in ast, dis and tokenize, which a
    single CLI call would pay for on every start."""
    code = ("import weylcalc, weylcalc.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(weylcalc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
