"""The six result records and the two hosts: frozen, compared and hashed by value."""

import copy
import pickle
import random
from itertools import combinations

import pytest

from rsize import arrowing
from rsize.arrowing import ArrowVerdict, EdgeColoring, is_good_coloring
from rsize.cli import _jsonify
from rsize.decolor import DecolorResult
from rsize.graphs import (
    Graph,
    Hypergraph,
    VertexColoring,
    coloring_from_assignment,
    complete,
    complete_r,
    disjoint_union,
    from_graph6,
    hypergraph_from_text,
    hypergraph_to_text,
    to_graph6,
)
from rsize.values import Flavor, PartitionWitness, ValueResult, part_cost

_WITNESS = dict(flavor=Flavor.G, n=4, parts=(1,), objective=part_cost(Flavor.G, 4, 1), target_sum=1, r=None)

# each record with valid fields in declaration order
RECORDS = [
    (EdgeColoring, dict(host=complete(3), blue=0b101)),
    (
        ArrowVerdict,
        dict(counterexample=EdgeColoring(complete(3), 0), n=4, t=1, mode="structural", nodes=3),
    ),
    (VertexColoring, dict(color_of=(0, 1, 0))),
    (
        DecolorResult,
        dict(
            graph=complete(3),
            n=4,
            t=2,
            removed=0b001,
            residual_coloring=coloring_from_assignment(complete(2), (0, 1)),
            matching_in_set=0,
        ),
    ),
    (PartitionWitness, _WITNESS),
    (ValueResult, dict(t=1, witness=PartitionWitness(**_WITNESS))),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_keep_their_value_semantics(cls, fields):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position)
    assert len({by_keyword, by_position}) == 1
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)
    with pytest.raises(AttributeError):
        by_keyword.extra = 1
    # never equal to another type, a tuple of its fields included
    assert by_keyword != tuple(fields.values())
    assert by_keyword != object()
    assert by_keyword.__eq__(tuple(fields.values())) is NotImplemented
    text = repr(by_keyword)
    assert text.startswith(f"{cls.__name__}(")
    for name, value in fields.items():
        assert f"{name}={value!r}" in text
    # copies are rebuilt field by field, not by setattr
    assert copy.copy(by_keyword) == by_keyword
    assert pickle.loads(pickle.dumps(by_keyword)) == by_keyword
    # a record is no tuple: the envelope serializer refuses it
    with pytest.raises(TypeError, match="cannot serialize"):
        _jsonify(by_keyword)


# one field per record, and another value it may hold
CHANGES = {
    EdgeColoring: ("blue", 0b001),
    ArrowVerdict: ("nodes", 4),
    VertexColoring: ("color_of", (0, 1, 1)),
    DecolorResult: ("matching_in_set", None),
    PartitionWitness: ("r", 3),
    ValueResult: ("t", 2),
}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_with_one_field_changed_differ(cls, fields):
    name, value = CHANGES[cls]
    assert cls(**fields) != cls(**{**fields, name: value})


def test_decolor_method_is_fixed():
    fields = dict(RECORDS[3][1])
    result = DecolorResult(**fields)
    assert result.method == "heuristic"
    assert "method" not in DecolorResult.__slots__
    with pytest.raises(TypeError):
        DecolorResult(**fields, method="exact")


def test_defaults_are_kept():
    fields = dict(RECORDS[3][1])
    del fields["matching_in_set"]
    assert DecolorResult(**fields).matching_in_set is None
    assert PartitionWitness(Flavor.G, 4, (1,), 6, 1).r is None


def test_records_validate_before_they_store():
    with pytest.raises(ValueError, match="out of range"):
        EdgeColoring(complete(3), 1 << 3)
    with pytest.raises(ValueError, match="nonnegative"):
        VertexColoring((0, -1))
    with pytest.raises(ValueError, match="nonincreasing"):
        PartitionWitness(Flavor.G, 4, (1, 2), part_cost(Flavor.G, 4, 1) + part_cost(Flavor.G, 4, 2), 3)


def test_records_store_no_fact_they_can_compute():
    # each fact another field gives is read through that field, not stored
    assert ArrowVerdict.__slots__ == ("counterexample", "n", "t", "mode", "nodes")
    assert ValueResult.__slots__ == ("t", "witness")
    assert VertexColoring.__slots__ == ("color_of", "classes")
    assert DecolorResult.__slots__ == ("graph", "n", "t", "removed", "residual_coloring", "matching_in_set")
    assert ArrowVerdict(None, 3, 1, "structural", 0).arrows is True
    assert ArrowVerdict(**RECORDS[1][1]).arrows is False
    assert ValueResult(1, PartitionWitness(**_WITNESS)).value == 6
    assert VertexColoring(()).classes == ()
    assert VertexColoring((0, 1, 0)).classes == (0b101, 0b010)
    assert DecolorResult(**RECORDS[3][1]).method == DecolorResult.method == "heuristic"
    # coloring_from_assignment hands over the classes it grouped: the same
    # record the constructor builds from color_of
    rng = random.Random(28)
    for _ in range(60):
        n = rng.randint(0, 9)
        g = Graph(n)
        coloring = coloring_from_assignment(g, [rng.randrange(4) for _ in range(n)])
        assert VertexColoring(coloring.color_of) == coloring


@pytest.mark.parametrize("blue", [1.0, True, "1", None], ids=repr)
def test_edge_coloring_refuses_a_mask_that_is_no_int(blue):
    with pytest.raises(ValueError, match="must be an integer"):
        EdgeColoring(complete(3), blue)


def _rebuilt(host):
    """The same host through its validating constructor, from its edges."""
    if isinstance(host, Graph):
        return Graph(host.n, host.edges())
    return Hypergraph(host.n, host.r, host.edge_tuples())


# a host's constructor takes edges, not its fields, so hosts are no rows of RECORDS
HOSTS = [
    Graph(0),
    complete(4),
    Graph(6, [(0, 3), (3, 5), (1, 2)]),
    complete_r(5, 3),
    Hypergraph(4, 2, [(2, 3), (0, 1)]),
]


@pytest.mark.parametrize("host", HOSTS, ids=lambda host: f"{type(host).__name__}{host.n}")
def test_hosts_keep_value_semantics(host):
    fields = tuple(getattr(host, name) for name in type(host).__slots__)
    for name, value in zip(type(host).__slots__, fields):
        with pytest.raises(AttributeError):
            setattr(host, name, value)
        with pytest.raises(AttributeError):
            delattr(host, name)
    with pytest.raises(AttributeError):
        host.extra = 1
    twin = _rebuilt(host)
    assert twin == host and twin is not host
    assert hash(twin) == hash(host) == hash(fields)
    assert copy.copy(host) == host
    assert pickle.loads(pickle.dumps(host)) == host
    assert host != fields
    assert host.__eq__(fields) is NotImplemented


def test_hosts_built_from_masks_equal_the_validated_constructor(monkeypatch):
    assert Graph(1) != Hypergraph(1, 2, ())
    rng = random.Random(25)
    for _ in range(40):
        n = rng.randint(0, 10)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        order = rng.sample(range(n), rng.randint(0, n))
        sub = g.induced(order)
        kept = [(i, j) for i, j in combinations(range(len(order)), 2) if g.has_edge(order[i], order[j])]
        assert sub == Graph(len(order), kept)
        assert arrowing._graph_of(n, [1 << u | 1 << v for u, v in g.edges()]) == g
        assert from_graph6(to_graph6(g)) == g
    # the builders that skip the edge check, against the constructors that run it
    for k in range(65):
        assert complete(k) == Graph(k, combinations(range(k), 2))
    for k in range(9):
        for r in range(2, 6):
            assert complete_r(k, r) == Hypergraph(k, r, combinations(range(k), r))
    for _ in range(20):
        parts, edges, offset = [], [], 0
        for _ in range(rng.randint(0, 4)):
            n = rng.randint(0, 8)
            pairs = list(combinations(range(n), 2))
            part = rng.sample(pairs, rng.randint(0, len(pairs)))
            parts.append(Graph(n, part))
            edges += [(u + offset, v + offset) for u, v in part]
            offset += n
        assert disjoint_union(parts) == Graph(offset, edges)
    for _ in range(20):
        n, r = rng.randint(2, 9), rng.randint(2, 4)
        subsets = list(combinations(range(n), r))
        edges = rng.sample(subsets, rng.randint(0, len(subsets)))
        h = Hypergraph(n, r, edges)
        assert hypergraph_from_text(hypergraph_to_text(h)) == h
        # edge lines in any order parse to the constructor's sorted masks
        lines = [f"{n} {r}"] + [" ".join(map(str, edge)) for edge in edges]
        assert hypergraph_from_text("\n".join(lines)) == h
    # the blue side of a hypergraph coloring, as is_good_coloring hands it on
    seen = []

    def recording(h):
        seen.append(h)
        return real(h)

    real = arrowing.hyper_matching
    monkeypatch.setattr(arrowing, "hyper_matching", recording)
    for host in (complete_r(6, 3), complete_r(7, 4), Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5), (0, 3, 5)])):
        for _ in range(10):
            coloring = EdgeColoring(host, rng.randrange(1, 1 << host.edge_count()))
            seen.clear()
            is_good_coloring(coloring, host.n, 2)
            assert seen == [Hypergraph(host.n, host.r, coloring.blue_edges())]
