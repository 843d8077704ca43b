"""The immutable value classes share one base, ``preqlat.Value``: fields
are slots set once, and equality, hashing and repr read the fields."""

import ast
import os
from fractions import Fraction

import pytest

import preqlat
from preqlat import Value
from preqlat.cealg import Cochain, ValidationReport, heisenberg_times_line
from preqlat.cohomring import CohomClass
from preqlat.exact import ExactScalar
from preqlat.prequant import IntegrableLattice
from preqlat.toruscalc.forms import CoordinateCycle, TorusForm, TorusVectorField
from preqlat.toruscalc.trig import TrigPoly

# one example of each subclass, built afresh on each call, and whether
# its fields hash (a dict field does not)
EXAMPLES = {
    "LieAlgebraPresentation": (lambda: heisenberg_times_line(2), False),
    "Cochain": (lambda: Cochain(3, 2, {(0, 2): Fraction(1, 2)}), False),
    "ValidationReport": (lambda: ValidationReport(True, None, True, 2, 0), True),
    "CohomClass": (lambda: CohomClass(2, (1, -3), (4,)), True),
    "ExactScalar": (lambda: ExactScalar(Fraction(3, 4), -1), True),
    "IntegrableLattice": (lambda: IntegrableLattice(
        ((2, 0, 0),), ExactScalar(3, -1), 1, CohomClass(2, (-1, -1), (0,)), Fraction(1)), True),
    "TrigPoly": (lambda: Fraction(1, 3) * TrigPoly.cosine(2, (0, 3)), True),
    "TorusForm": (lambda: TorusForm.basis(2, (0, 1), TrigPoly.sin_axis(2, 0), -2), True),
    "TorusVectorField": (lambda: TorusVectorField(2, [1, TrigPoly.cos_axis(2, 0)], 1), True),
    "CoordinateCycle": (lambda: CoordinateCycle(3, (2, 1), {0: 5}), False),
}


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


def test_every_value_class_has_an_example():
    assert {cls.__name__ for cls in Value.__subclasses__()} == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_value_fields_are_immutable(name):
    make, _ = EXAMPLES[name]
    value = make()
    for field in type(value).__slots__:
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        value.extra = 1


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_equal_fields_give_equal_values(name):
    make, hashable = EXAMPLES[name]
    a, b = make(), make()
    cls = type(a)
    rebuilt = cls(*_fields(a))
    assert a == b == rebuilt and not a != b
    assert a.__eq__(_fields(a)) is NotImplemented
    assert repr(a) == f"{name}({', '.join(map(repr, _fields(a)))})"
    if hashable:
        assert hash(a) == hash(b) == hash(rebuilt)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_wrong_field_count_is_a_type_error(name):
    make, _ = EXAMPLES[name]
    value = make()
    with pytest.raises(TypeError):
        type(value)(*_fields(value), None)


def test_base_constructor_counts_fields():
    with pytest.raises(TypeError, match="CohomClass takes 3 fields, not 2"):
        CohomClass(2, (1,))
    with pytest.raises(TypeError, match="ValidationReport takes 5 fields, not 6"):
        ValidationReport(True, None, True, 2, 0, 0)


def test_hashes_are_those_of_the_field_tuples():
    assert hash(CohomClass(2, (1, -3), (4,))) == hash((2, (1, -3), (4,)))
    assert hash(ExactScalar(Fraction(3, 4), -1)) == hash((Fraction(3, 4), -1))


def test_only_value_defines_setattr():
    root = os.path.dirname(preqlat.__file__)
    owners = []
    for folder, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    tree = ast.parse(fh.read())
                owners += [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                           and any(isinstance(sub, ast.FunctionDef) and sub.name == "__setattr__"
                                   for sub in node.body)]
    assert owners == ["Value"]


def test_subtraction_adds_the_negation():
    """``Value.__sub__`` is every value class's ``a - b``: ``a + (-b)``."""
    pairs = [
        (Cochain(3, 2, {(0, 2): Fraction(1, 2)}), Cochain(3, 2, {(0, 1): 3, (0, 2): 1})),
        (ExactScalar(Fraction(3, 4), -1), ExactScalar(Fraction(1, 4), -1)),
        (TrigPoly.cos_axis(2, 1), TrigPoly.sine(2, (1, 1))),
        (TorusForm.basis(2, (0,), TrigPoly.sin_axis(2, 0)), TorusForm.basis(2, (1,), 3)),
    ]
    for a, b in pairs:
        assert a - b == a + (-b) != a + b
    poly = TrigPoly.cos_axis(2, 1)
    assert poly - 2 == poly + TrigPoly.const(2, -2)
    assert poly - Fraction(1, 3) == poly + Fraction(-1, 3)
