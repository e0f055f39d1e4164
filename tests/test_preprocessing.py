"""Tests for ghost-degree exchange and distributed orientation."""

import numpy as np
import pytest

from repro.core import preprocessing
from repro.core.orientation import orient_by_degree
from repro.core.preprocessing import build_oriented, exchange_ghost_degrees
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import Machine


def _exchange_prog(ctx, dist, mode):
    lg = dist.view(ctx.rank)
    degs = yield from exchange_ghost_degrees(ctx, lg, mode=mode)
    return degs


@pytest.mark.parametrize("mode", ["dense", "sparse"])
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_ghost_degrees_correct(mode, p, random_graph):
    g = random_graph
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(_exchange_prog, dist, mode)
    for rank, degs in enumerate(res.values):
        lg = dist.view(rank)
        expected = g.degrees[lg.ghost_vertices]
        assert np.array_equal(degs, expected), (rank, mode)
        assert lg.ghost_degrees is degs


def test_exchange_rejects_bad_mode():
    g = gen.ring(6)
    dist = distribute(g, num_pes=2)
    with pytest.raises(ValueError):
        Machine(2).run(_exchange_prog, dist, "bogus")


def test_sparse_cheaper_than_dense_on_local_graph():
    """Few communication partners: sparse avoids the p-1 message tax."""
    g = gen.grid2d(16, 16)
    p = 8
    dist = distribute(g, num_pes=p)
    dense = Machine(p).run(_exchange_prog, dist, "dense")
    sparse = Machine(p).run(_exchange_prog, dist, "sparse")
    assert sparse.metrics.total_messages < dense.metrics.total_messages


def _orient_prog(ctx, dist, with_ghosts):
    lg = dist.view(ctx.rank)
    yield from exchange_ghost_degrees(ctx, lg)
    og = build_oriented(ctx, lg, with_ghosts=with_ghosts)
    return og


@pytest.mark.parametrize("p", [1, 2, 4])
def test_distributed_orientation_matches_sequential(p, random_graph):
    g = random_graph
    seq = orient_by_degree(g)
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(_orient_prog, dist, False)
    for rank, og in enumerate(res.values):
        lg = dist.view(rank)
        for v in lg.owned_vertices():
            assert og.out_neighborhood(int(v)).tolist() == seq.neighbors(int(v)).tolist()


def test_orientation_requires_ghost_degrees():
    g = gen.ring(8)
    dist = distribute(g, num_pes=2)

    def prog(ctx):
        lg = dist.view(ctx.rank)
        with pytest.raises(RuntimeError):
            build_oriented(ctx, lg)
        return None
        yield  # pragma: no cover

    Machine(2).run(prog)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ghost_out_neighborhoods_restricted_and_oriented(p, random_graph):
    g = random_graph
    seq = orient_by_degree(g)
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(_orient_prog, dist, True)
    for rank, og in enumerate(res.values):
        lg = dist.view(rank)
        for slot, ghost in enumerate(lg.ghost_vertices):
            got = og.ghost_out_neighborhood(slot)
            expected = [
                u for u in seq.neighbors(int(ghost)) if lg.vlo <= u < lg.vhi
            ]
            assert got.tolist() == expected


def test_ghost_neighborhood_access_requires_flag():
    g = gen.ring(8)
    dist = distribute(g, num_pes=2)
    res = Machine(2).run(_orient_prog, dist, False)
    with pytest.raises(RuntimeError):
        res.values[0].ghost_out_neighborhood(0)


def test_contracted_drops_exactly_local_arcs(random_graph):
    p = 4
    g = random_graph
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(_orient_prog, dist, True)
    for rank, og in enumerate(res.values):
        lg = dist.view(rank)
        cxadj, cadj = og.contracted()
        assert np.all(~lg.is_local(cadj))  # only cut arcs remain
        # Counts add up: oriented = contracted + local arcs.
        local_arcs = int(np.count_nonzero(lg.is_local(og.oadjncy)))
        assert cadj.size == og.oadjncy.size - local_arcs


def test_order_keys_of_matches_degree_order(random_graph):
    p = 3
    g = random_graph
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(_orient_prog, dist, False)
    n = g.num_vertices
    global_keys = g.degrees.astype(np.int64) * (n + 1) + np.arange(n)
    for rank, og in enumerate(res.values):
        lg = dist.view(rank)
        known = np.concatenate([lg.owned_vertices(), lg.ghost_vertices])
        if known.size:
            assert np.array_equal(og.order_keys_of(known), global_keys[known])


def test_out_degrees_property(random_graph):
    dist = distribute(random_graph, num_pes=2)
    res = Machine(2).run(_orient_prog, dist, False)
    for og in res.values:
        assert np.array_equal(og.out_degrees(), np.diff(og.oxadj))


def _reference_send_lists(lg):
    """The 2-D ``unique`` send lists: ``{rank: ((ids, degrees), words)}``."""
    cut = lg.cut_edges()
    out = {}
    if not cut.size:
        return out
    tgt_ranks = lg.partition.rank_of(cut[:, 1])
    pairs = np.unique(np.column_stack([tgt_ranks, cut[:, 0]]), axis=0)
    for rank in np.unique(pairs[:, 0]):
        ids = pairs[pairs[:, 0] == rank, 1]
        degs = lg.xadj[ids - lg.vlo + 1] - lg.xadj[ids - lg.vlo]
        out[int(rank)] = ((ids, degs), 2 * ids.size)
    return out


def _same_send_lists(got, want):
    if list(got) != list(want):
        return False
    for rank, ((ids, degs), words) in want.items():
        (g_ids, g_degs), g_words = got[rank]
        if g_words != words:
            return False
        for a, b in ((g_ids, ids), (g_degs, degs)):
            if a.dtype != b.dtype or a.tobytes() != b.tobytes():
                return False
    return True


@pytest.mark.parametrize("mode", ["dense", "sparse"])
@pytest.mark.parametrize(
    "graph,p",
    [
        (gen.gnm(400, 2500, seed=11), 7),
        (gen.rmat(9, 8, seed=12), 10),
        (gen.rhg(600, avg_degree=10, seed=14), 12),
        (gen.disjoint_cliques(4, 5), 4),  # every edge local: empty cut
        (gen.ring(6), 9),  # p > n: some PEs own nothing
    ],
    ids=["gnm-p7", "rmat-p10", "rhg-p12", "empty-cut", "p-gt-n"],
)
def test_degree_send_lists_match_2d_unique(monkeypatch, mode, graph, p):
    """Per-destination payloads equal the 2-D ``unique`` reference:
    same destinations, same ids in the same order, same words."""
    sent = {}
    dense, sparse = preprocessing.alltoallv_dense, preprocessing.sparse_alltoall

    def captured_dense(ctx, payloads, **kw):
        sent[ctx.rank] = dict(payloads)
        return (yield from dense(ctx, payloads, **kw))

    def captured_sparse(ctx, triples, **kw):
        sent[ctx.rank] = {d: (payload, w) for d, payload, w in triples}
        return (yield from sparse(ctx, triples, **kw))

    monkeypatch.setattr(preprocessing, "alltoallv_dense", captured_dense)
    monkeypatch.setattr(preprocessing, "sparse_alltoall", captured_sparse)
    dist = distribute(graph, num_pes=p)
    Machine(p).run(_exchange_prog, dist, mode)
    assert sorted(sent) == list(range(p))
    for rank in range(p):
        assert _same_send_lists(sent[rank], _reference_send_lists(dist.view(rank))), rank
