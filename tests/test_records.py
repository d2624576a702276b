"""Semantics of the six frozen result types: equality, hashing, immutability, repr."""

import numpy as np
import pytest

from versal import (ClosureReason, ClosureVerdict, DeformationPattern, MonicPolynomial,
                    SegreStructure, Shape, arnold_pattern, closure_necessary, recover,
                    reduce_single_block)


def value_pairs():
    # per class compared by value: two equal instances built apart and one
    # that differs in a single field
    s = SegreStructure([(0, [2]), (1.5j, [1])])
    return [
        (s, SegreStructure([(0.0, (2,)), (1.5j, (1,))]),
         SegreStructure([(0, [2]), (1.5, [1])])),
        (arnold_pattern(s), DeformationPattern(SegreStructure(s.blocks), Shape.ARNOLD,
                                               arnold_pattern(s).stars),
         DeformationPattern(s, Shape.ALTERNATE, arnold_pattern(s).stars)),
        (ClosureVerdict(True, ClosureReason.CODIM_PASSES, 2, 4),
         ClosureVerdict(possible=True, reason=ClosureReason.CODIM_PASSES, source_codim=2,
                        target_codim=4),
         ClosureVerdict(True, ClosureReason.CODIM_PASSES, 2, 5)),
    ]


def class_name(record):
    return type(record).__name__


def identity_records():
    poly = MonicPolynomial([[[1.0]]])
    return [poly, recover(poly, np.zeros((1, 1))),
            reduce_single_block(np.array([[2.0, 1.0], [0.0, 2.0]]), 2)]


@pytest.mark.parametrize("first, equal, other", value_pairs())
def test_value_records_compare_and_hash_by_fields(first, equal, other):
    assert first is not equal
    assert first == equal and not first != equal
    assert hash(first) == hash(equal)
    assert first != other
    assert len({first, equal, other}) == 2
    # never equal to a record of another class, or to a tuple of its fields
    assert first != ClosureVerdict(True, ClosureReason.SAME_STRUCTURE, 0, 0)
    assert first != tuple(getattr(first, name) for name in type(first).__match_args__)


def test_segre_structure_hash_is_that_of_its_fields():
    # sets and dicts of structures iterate in the same order as before
    s = SegreStructure([(0, [2, 1]), (1j, [1])])
    assert hash(s) == hash((s.blocks,))


@pytest.mark.parametrize("record", identity_records(), ids=class_name)
def test_identity_records_compare_by_identity(record):
    twin = object.__new__(type(record))
    for name in type(record).__match_args__:
        object.__setattr__(twin, name, getattr(record, name))
    assert record == record and hash(record) == object.__hash__(record)
    assert record != twin
    assert len({record, twin}) == 2


@pytest.mark.parametrize("record", [first for first, _, _ in value_pairs()]
                         + identity_records(), ids=class_name)
def test_records_are_frozen(record):
    name = type(record).__match_args__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert getattr(record, name) is before


def test_reprs():
    s = SegreStructure([(0, [2]), (1.5j, [1])])
    assert repr(s) == "SegreStructure(blocks=((0j, (2,)), (1.5j, (1,))))"
    assert repr(arnold_pattern(SegreStructure([(0, [2])]))) == (
        "DeformationPattern(base=SegreStructure(blocks=((0j, (2,)),)), "
        "shape=<Shape.ARNOLD: 'arnold'>, stars=((2, 1, 1), (2, 2, 2)))")
    assert repr(closure_necessary(SegreStructure([(0, [2])]),
                                  SegreStructure([(0, [1, 1])]))) == (
        "ClosureVerdict(possible=True, reason=<ClosureReason.CODIM_PASSES: "
        "'codim-passes'>, source_codim=2, target_codim=4)")
    assert repr(reduce_single_block(np.array([[2, 1], [0, 2]]), 2)) == (
        "ReductionResult(deformed=array([[2.+0.j, 1.+0.j],\n"
        "       [0.+0.j, 2.+0.j]]), transform=array([[ 1.+0.j,  0.+0.j],\n"
        "       [-0.+0.j,  1.+0.j]]))")
    assert repr(MonicPolynomial([[[1]], [[2j]]])) == (
        "MonicPolynomial(coefficients=(array([[1.+0.j]]), array([[0.+2.j]])))")
    assert repr(recover(MonicPolynomial([[[1]]]), np.zeros((1, 1)))) == (
        "RecoveryResult(recovered=MonicPolynomial(coefficients=(array([[1.-0.j]]),)), "
        "transform=array([[1.+0.j]]), iterations=0, residual_trace=(0.0,), "
        "similarity_residual=0.0)")


def test_records_match_their_fields_positionally():
    match ClosureVerdict(True, ClosureReason.CODIM_PASSES, 2, 4):
        case ClosureVerdict(possible, reason, source, target):
            assert (possible, reason, source, target) == (
                True, ClosureReason.CODIM_PASSES, 2, 4)
    match MonicPolynomial([[[1.0]]]):
        case MonicPolynomial(coefficients):
            assert len(coefficients) == 1
