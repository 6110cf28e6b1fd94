import numpy as np
import pytest

from consensuskit import graph
from consensuskit.graph import Topology, TopologyError


def test_canonical_edge_orders_pair():
    assert graph.canonical_edge(5, 2) == (2, 5)
    assert graph.canonical_edge(2, 5) == (2, 5)


def test_topology_canonicalizes_and_sorts_edges():
    t = Topology(n=4, edges=((3, 1), (2, 1), (4, 2)))
    assert t.edges == ((1, 2), (1, 3), (2, 4))
    assert t.weights == {(1, 2): 1.0, (1, 3): 1.0, (2, 4): 1.0}


def test_topology_rejects_self_loop():
    with pytest.raises(TopologyError):
        Topology(n=3, edges=((1, 1),))


def test_topology_rejects_out_of_range_agent():
    with pytest.raises(TopologyError):
        Topology(n=3, edges=((1, 4),))


def test_topology_rejects_duplicate_edge():
    with pytest.raises(TopologyError):
        Topology(n=3, edges=((1, 2), (2, 1)))


def test_topology_rejects_nonpositive_weight():
    with pytest.raises(TopologyError):
        Topology(n=3, edges=((1, 2),), weights={(1, 2): 0.0})


def test_topology_rejects_missing_weight():
    with pytest.raises(TopologyError):
        Topology(n=3, edges=((1, 2), (2, 3)), weights={(1, 2): 1.0})


def test_topology_rejects_tiny_graph_and_bad_leader():
    with pytest.raises(TopologyError):
        Topology(n=1, edges=())
    with pytest.raises(TopologyError):
        Topology(n=3, edges=((1, 2),), leader=9)


def test_leader_and_follower_edges():
    t = Topology(n=4, edges=((1, 2), (1, 3), (2, 3), (3, 4)), leader=1)
    assert t.leader_edges() == ((1, 2), (1, 3))


def test_initial_weight_vector_follows_given_order():
    t = Topology(n=3, edges=((1, 2), (2, 3)), weights={(1, 2): 2.0, (2, 3): 5.0})
    assert np.allclose(t.initial_weight_vector(((2, 3), (1, 2))), [5.0, 2.0])


def test_is_connected():
    assert graph.is_connected(graph.cycle_topology(5))
    disconnected = Topology(n=4, edges=((1, 2), (3, 4)))
    assert not graph.is_connected(disconnected)


def test_too_few_edges_never_connect():
    # n - 1 edges are needed; one edge among a million agents is decided
    # without visiting the agents
    huge = Topology(n=1000000, edges=((1, 2),), leader=1)
    assert not graph.is_connected(huge)
    assert not graph.is_leader_reachable(huge)
    assert graph.is_connected(graph.path_topology(7))


def test_is_leader_reachable():
    t = Topology(n=4, edges=((1, 2), (2, 3), (3, 4)), leader=1)
    assert graph.is_leader_reachable(t)
    stranded = Topology(n=4, edges=((1, 2), (3, 4)), leader=1)
    assert not graph.is_leader_reachable(stranded)
    with pytest.raises(TopologyError):
        graph.is_leader_reachable(Topology(n=3, edges=((1, 2), (2, 3))))


def test_topology_helpers_shapes():
    assert len(graph.path_topology(5).edges) == 4
    assert len(graph.cycle_topology(5).edges) == 5
    assert len(graph.complete_topology(5).edges) == 10
    star = graph.star_topology(5, leader=1)
    assert len(star.edges) == 4
    assert star.leader == 1
    assert all(1 in e for e in star.edges)
