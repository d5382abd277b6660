"""Value semantics of the package's immutable records: construction,
repr, equality, hashing, immutability, copying and pickling.  The repr
strings are the ones the frozen dataclasses these classes replaced
printed."""

import copy
import pickle

import pytest

from turangood import (
    ExtremalResult,
    LinearForest,
    PartSizes,
    SmallGraph,
    VerificationReport,
)

PATH = SmallGraph(3, (2, 5, 2))
FIRST_FIELD = {LinearForest: "components", PartSizes: "sizes", SmallGraph: "n",
               ExtremalResult: "forest", VerificationReport: "claim"}

# name -> (positional construction, keyword construction, repr of both)
CASES = {
    "forest": (
        lambda: LinearForest((1, 3)),
        lambda: LinearForest(components=[3, 1]),
        "LinearForest(components=(3, 1))"),
    "forest-default": (
        lambda: LinearForest(),
        lambda: LinearForest(components=()),
        "LinearForest(components=())"),
    "parts": (
        lambda: PartSizes((2, 0, 3)),
        lambda: PartSizes(sizes=[2, 0, 3]),
        "PartSizes(sizes=(2, 0, 3))"),
    "parts-default": (
        lambda: PartSizes(),
        lambda: PartSizes(sizes=()),
        "PartSizes(sizes=())"),
    "graph": (
        lambda: SmallGraph(3, (2, 5, 2)),
        lambda: SmallGraph(adj=(2, 5, 2), n=3),
        "SmallGraph(n=3, adj=(2, 5, 2))"),
    "result": (
        lambda: ExtremalResult(LinearForest((2,)), 3, 2, 2, 2, (PATH,), 8),
        lambda: ExtremalResult(forest=LinearForest((2,)), n=3, k=2, max_count=2,
                               turan_count=2, witnesses=(PATH,), graphs_scanned=8),
        "ExtremalResult(forest=LinearForest(components=(2,)), n=3, k=2, max_count=2, "
        "turan_count=2, witnesses=(SmallGraph(n=3, adj=(2, 5, 2)),), graphs_scanned=8)"),
    "report": (
        lambda: VerificationReport("odd-identity", {"n": 5}, "holds", (), None, 2, "2"),
        lambda: VerificationReport(claim="odd-identity", params={"n": 5}, verdict="holds",
                                   instances_checked=2, ratio="2"),
        "VerificationReport(claim='odd-identity', params={'n': 5}, verdict='holds', "
        "maximizers=(), counterexample=None, instances_checked=2, ratio='2')"),
    "report-counterexample": (
        lambda: VerificationReport("balance", {}, "counterexample", ((2, 1),),
                                   {"move": [0, 1]}, 3),
        lambda: VerificationReport(claim="balance", params={}, verdict="counterexample",
                                   maximizers=((2, 1),), counterexample={"move": [0, 1]},
                                   instances_checked=3),
        "VerificationReport(claim='balance', params={}, verdict='counterexample', "
        "maximizers=((2, 1),), counterexample={'move': [0, 1]}, instances_checked=3, "
        "ratio=None)"),
}

cases = pytest.mark.parametrize("make, make_kw, text", CASES.values(), ids=CASES.keys())


@cases
def test_construction_and_repr(make, make_kw, text):
    assert repr(make()) == repr(make_kw()) == text


@cases
def test_equal_values_equal_objects(make, make_kw, text):
    a, b = make(), make_kw()
    assert a is not b
    assert a == b and not a != b
    if isinstance(a, VerificationReport):
        # params is a dict, so a report is unhashable, as it always was
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@cases
def test_assignment_and_deletion_raise(make, make_kw, text):
    obj = make()
    field = FIRST_FIELD[type(obj)]
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, field, ())
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert repr(obj) == before


@cases
def test_copy_and_pickle_round_trip(make, make_kw, text):
    obj = make()
    for clone in (copy.copy(obj), copy.deepcopy(obj),
                  *(pickle.loads(pickle.dumps(obj, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(clone) is type(obj)
        assert clone == obj
        assert repr(clone) == text


def test_unequal_values_and_classes():
    assert LinearForest((3, 2)) != LinearForest((3, 1))
    assert SmallGraph(2, (2, 1)) != SmallGraph(2, (0, 0))
    # the same field values under another class never compare equal
    assert LinearForest((3, 2)) != PartSizes((3, 2))
    assert PartSizes((3, 2)) != LinearForest((3, 2))
    assert LinearForest((3, 2)) != ((3, 2),)
    assert LinearForest((3, 2)) != (3, 2)


def test_validation_messages_kept():
    with pytest.raises(ValueError, match="component order must be >= 1, got 0"):
        LinearForest((2, 0))
    with pytest.raises(ValueError, match="part size must be >= 0, got -1"):
        PartSizes((1, -1))
    with pytest.raises(ValueError, match="adjacency is not symmetric"):
        SmallGraph(2, (2, 0))
    with pytest.raises(ValueError, match="instances_checked must be positive"):
        VerificationReport("balance", {}, "holds")
