import copy
import pickle
import random
from functools import cache

import pytest

from treehom import (
    SMALL_TARGETS,
    SizeLimitError,
    TargetGraph,
    Tree,
    add_looped_dominating,
    all_trees,
    canonical_code,
    check_strong_hl_certificate,
    classify_small_targets,
    find_increasing_ordering,
    is_loop_threshold,
    make_capacity_graph,
    make_folkman_plus_dominating,
    make_H_abl,
    make_widom_rowlinson,
    minimizers,
    path,
    sidorenko_check,
    star,
    tree_hom,
    verify_hoffman_london,
)
from treehom import extremal, homcount, trees
from treehom.automorphy import Quotient, SimilarityMatrix, _equitable_quotient, orbit_partition
from treehom.extremal import ClassificationRow, HLVerdict, MinimizerReport, OrderVerdict
from treehom.graphs import _Record
from treehom.trees import CanonicalTree, _Shapes
from treehom.trees import TREE_LIMIT, free_trees, tree_count
from oracles import (
    as_certificate, bipartition, fold_counts, has_balanced_bipartition, isomorphic, spider_counts,
    strict_witness_pairs,
)
from treehom.cli import main, parse_target_spec


def tg(n, *edges):
    return TargetGraph.from_edges(n, edges)


def verdict(H, n):
    """The verdict at order n read from every tree's count."""
    counts, path_count = fold_counts(H, n), homcount._path_hom(_equitable_quotient(H), n)
    lo = min(counts)
    return OrderVerdict(n, lo, path_count == lo, path_count == lo and counts.count(lo) == 1)


def counted(fn, calls):
    """fn, recording the arguments of each call in calls."""
    def counted_fn(*args):
        calls.append(args)
        return fn(*args)
    return counted_fn


class TestCatalog:
    # (vertices, edges counting loops, loops) per target
    SHAPE = {
        1: (1, 0, 0), 2: (1, 1, 1), 3: (2, 0, 0), 4: (2, 1, 1), 5: (2, 2, 2),
        6: (2, 1, 0), 7: (2, 2, 1), 8: (2, 3, 2), 9: (3, 0, 0), 10: (3, 1, 1),
        11: (3, 2, 2), 12: (3, 3, 3), 13: (3, 1, 0), 14: (3, 2, 1),
        15: (3, 2, 1), 16: (3, 3, 2), 17: (3, 3, 2), 18: (3, 4, 3),
        19: (3, 2, 0), 20: (3, 3, 1), 21: (3, 3, 1), 22: (3, 4, 2),
        23: (3, 4, 2), 24: (3, 5, 3), 25: (3, 3, 0), 26: (3, 4, 1),
        27: (3, 5, 2), 28: (3, 6, 3),
    }

    def test_shapes(self):
        for hid, h in SMALL_TARGETS.items():
            loops = sum(1 for u, v in h.edges if u == v)
            assert (h.n, len(h.edges), loops) == self.SHAPE[hid], hid

    def test_all_distinct(self):
        for a in range(1, 29):
            for b in range(a + 1, 29):
                assert not isomorphic(SMALL_TARGETS[a], SMALL_TARGETS[b]), (a, b)


class TestFamilies:
    def test_capacity_one_is_hind(self):
        assert isomorphic(make_capacity_graph(1), SMALL_TARGETS[7])

    def test_capacity_two(self):
        assert make_capacity_graph(2) == tg(3, (0, 0), (0, 1), (0, 2), (1, 1))

    def test_capacity_three_loops(self):
        h = make_capacity_graph(3)
        assert h.n == 4
        assert [h.has_loop(v) for v in range(4)] == [True, True, False, False]

    def test_wr_one_is_fully_looped_k2(self):
        assert make_widom_rowlinson(1) == tg(2, (0, 0), (1, 1), (0, 1))

    def test_wr_all_looped_star(self):
        h = make_widom_rowlinson(3)
        assert h.n == 4
        assert all(h.has_loop(v) for v in range(4))
        assert not h.has_edge(1, 2)

    def test_habl_star_case(self):
        # appending single edges to one vertex gives a star
        for ell in range(1, 5):
            assert isomorphic(make_H_abl(2, 1, ell),
                              tg(ell + 1, *[(0, i) for i in range(1, ell + 1)]))

    def test_habl_bouquet(self):
        h = make_H_abl(3, 1, 2)
        assert h.n == 5 and len(h.edges) == 6 and h.degree(0) == 4

    def test_habl_clique_case(self):
        assert isomorphic(make_H_abl(4, 3, 0), tg(3, (0, 1), (0, 2), (1, 2)))

    def test_folkman_shape(self):
        h = make_folkman_plus_dominating()
        assert h.n == 21
        degs = sorted(h.degree(v) for v in h.vertices())
        # 20 vertices of degree 5, the dominating vertex of degree 21
        assert degs == [5] * 20 + [21]
        assert h.has_loop(20) and not any(h.has_loop(v) for v in range(20))

    @pytest.mark.parametrize("build, args, message", [
        (make_capacity_graph, (0,), "capacity must be >= 1"),
        (make_widom_rowlinson, (0,), "need k >= 1 particle types"),
        (make_H_abl, (0, 1, 0), "need a, b >= 1 and ell >= 0"),
        (make_H_abl, (1, 0, 0), "need a, b >= 1 and ell >= 0"),
        (make_H_abl, (1, 1, -1), "need a, b >= 1 and ell >= 0"),
    ])
    def test_refuses_parameters_out_of_range(self, build, args, message):
        with pytest.raises(ValueError) as exc:
            build(*args)
        assert str(exc.value) == message


class TestLoopThreshold:
    def test_capacity_three_ordering(self):
        assert is_loop_threshold(make_capacity_graph(3)) == (3, 2, 1, 0)

    def test_h22_is_threshold(self):
        assert is_loop_threshold(SMALL_TARGETS[22]) is not None
        assert is_loop_threshold(SMALL_TARGETS[27]) is not None

    def test_triangle_with_pendant_is_not(self):
        h = tg(4, (0, 1), (0, 2), (1, 2), (0, 3))
        assert is_loop_threshold(h) is None

    def test_ordering_really_nests(self):
        for hid in (22, 24, 27, 28):
            h = SMALL_TARGETS[hid]
            order = is_loop_threshold(h)
            if order is None:
                continue
            for u, v in zip(order, order[1:]):
                assert h.neighbors(u) <= h.neighbors(v)

    def test_threshold_targets_are_path_minimal(self):
        # nested-neighborhood targets keep the path minimal once trivial
        # parts are stripped (empty or fully looped complete remainders
        # make all trees tie instead)
        for hid, h in SMALL_TARGETS.items():
            order = is_loop_threshold(h)
            if order is None:
                continue
            if not any(h.neighbors(v) - {v} for v in h.vertices()):
                continue
            for n in range(2, 8):
                assert minimizers(h, n).path_is_min, (hid, n)

    def test_every_build_sequence_is_path_minimal(self):
        # the paper's theorem on every loop-threshold target on 1 to 7
        # vertices: each step adds an isolated unlooped vertex or a looped
        # dominating vertex, 2 + 4 + ... + 128 = 254 build sequences
        built = [tg(1), tg(1, (0, 0))]
        for H in built:  # breadth first: each graph's two successors join the list
            if H.n < 7:
                built += TargetGraph.from_edges(H.n + 1, H.edges), add_looped_dominating(H, 1)
        assert len(built) == 254
        for H in built:
            assert is_loop_threshold(H) is not None, H
            assert find_increasing_ordering(H) is not None, H
            assert verify_hoffman_london(H, 10).hoffman_london, H


class TestMinimizers:
    def test_balanced_minimizers_for_unlooped_star_target(self):
        rep = minimizers(SMALL_TARGETS[19], 5)
        balanced = sorted(ct.code for ct in all_trees(5)
                          if has_balanced_bipartition(ct.tree))
        assert list(rep.minimizers) == balanced

    def test_k2_all_trees_tie(self):
        rep = minimizers(SMALL_TARGETS[6], 6)
        assert rep.min_count == rep.max_count == 2
        assert len(rep.minimizers) == len(all_trees(6))

    def test_hind_unique_path(self):
        rep = minimizers(SMALL_TARGETS[7], 5)
        assert rep.minimizers == (canonical_code(path(5)),)
        assert rep.path_is_unique_min

    def test_report_invariants(self):
        rng = random.Random(47)
        for _ in range(10):
            h = SMALL_TARGETS[rng.randint(1, 28)]
            rep = minimizers(h, rng.randint(2, 7))
            assert rep.min_count <= rep.max_count
            assert rep.path_is_min or not rep.path_is_unique_min


class TestHLVerdicts:
    def test_k4_hl_but_never_strong(self):
        k4 = tg(4, *[(i, j) for i in range(4) for j in range(i + 1, 4)])
        v = verify_hoffman_london(k4, 7)
        assert v.hoffman_london
        assert not v.strongly_hoffman_london  # regular: all trees tie

    def test_fully_looped_path_strongly_hl(self):
        p5 = tg(5, *([(i, i + 1) for i in range(4)] + [(i, i) for i in range(5)]))
        v = verify_hoffman_london(p5, 7)
        assert v.hoffman_london and v.strongly_hoffman_london
        assert v.matrix_certificate is not None

    def test_habl_strongly_hl(self):
        v = verify_hoffman_london(make_H_abl(3, 2, 2), 7)
        assert v.strongly_hoffman_london

    def test_size_limit_leaves_no_certificate(self, monkeypatch):
        # capacity:3 has 4 singleton classes: no search, but a 4 x 4 matrix
        monkeypatch.setattr("treehom.automorphy.AUT_WORK_LIMIT", 15)
        v = verify_hoffman_london(make_capacity_graph(3), 6)
        assert v.matrix_certificate is None and v.strong_certificate is None
        assert v.hoffman_london

    def test_node_limit_leaves_no_certificate(self, monkeypatch):
        monkeypatch.setattr("treehom.automorphy.ORDERING_WORK_LIMIT", 5)
        v = verify_hoffman_london(make_capacity_graph(20), 4)
        assert v.matrix_certificate is None and v.strong_certificate is None
        assert v.hoffman_london

    def test_verdict_codes_no_tree(self, monkeypatch):
        # h6 ties every tree at every order, so coding minimizers would code
        # them all; the verdict reads only counts and flags
        h6 = SMALL_TARGETS[6]
        want = [minimizers(h6, n) for n in range(2, 10)]

        def no_codes(*args):
            raise AssertionError("check-hl coded a tree")

        monkeypatch.setattr("treehom.extremal.tree_codes", no_codes)
        v = verify_hoffman_london(h6, 9)
        assert [(r.n, r.min_count, r.path_is_min, r.path_is_unique_min) for r in v.reports] == \
            [(r.n, r.min_count, r.path_is_min, r.path_is_unique_min) for r in want]
        assert v.hoffman_london and not v.strongly_hoffman_london

    def test_check_hl_builds_no_count_list(self, monkeypatch):
        # each order's verdict reads only the trees counted at most the
        # path's count, from the bounded fold, and lists no tree; h6 ties
        # every tree
        targets = (make_folkman_plus_dominating(), SMALL_TARGETS[6], make_capacity_graph(3))
        want = [[verdict(H, n) for n in range(2, 13)] for H in targets]

        def refuse(*args):
            raise AssertionError("check-hl listed every tree")

        monkeypatch.setattr(trees, "free_trees", refuse)
        assert [list(verify_hoffman_london(H, 12).reports) for H in targets] == want

    def test_minimize_and_sidorenko_build_no_count_list(self, monkeypatch):
        # the least count and its ties are read at most the path's count,
        # the largest above the star's count less one; h6 ties every tree,
        # and h18 is regular with two degrees
        targets = (make_folkman_plus_dominating(), SMALL_TARGETS[6], make_capacity_graph(3),
                   SMALL_TARGETS[18])

        def reference(H, n):
            counts, v = fold_counts(H, n), verdict(H, n)
            codes = trees.tree_codes(n, range(len(counts)))
            return MinimizerReport(
                n, v.min_count, tuple(sorted(codes[i] for i, c in enumerate(counts)
                                             if c == v.min_count)),
                v.path_is_min, v.path_is_unique_min, max(counts),
                homcount._star_hom(_equitable_quotient(H), n) == max(counts))

        want = [[reference(H, n) for n in range(2, 13)] for H in targets]
        assert [[minimizers(H, n) for n in range(2, 13)] for H in targets] == want

        def refuse(*args):
            raise AssertionError("sidorenko listed every tree")

        # minimize codes its minimizers off the listing; sidorenko, with no
        # tree above the star, lists none
        monkeypatch.setattr(trees, "free_trees", refuse)
        assert [sidorenko_check(H, 12) for H in targets] == [(True, None)] * len(targets)

    def test_bounded_fold_refuses_an_order_past_its_tables(self):
        # tables built for n_max would list wrong positions past it
        _, fold = extremal._bounded_fold(SMALL_TARGETS[7], 8)
        with pytest.raises(ValueError, match="n <= 8"):
            fold(9, 10 ** 9)

    def test_certificate_search_errors_propagate(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("ordering search failed")

        monkeypatch.setattr("treehom.extremal.find_increasing_ordering", broken)
        with pytest.raises(RuntimeError, match="ordering search failed"):
            verify_hoffman_london(SMALL_TARGETS[7], 4)

    def test_certificate_failure_single_class(self):
        lk3 = tg(3, *[(i, j) for i in range(3) for j in range(i, 3)])
        got = find_increasing_ordering(lk3)
        assert got is not None
        res = check_strong_hl_certificate(lk3, got)
        assert isinstance(res, str)  # single class: no witness pair exists

    def test_certificate_success_hind(self):
        res = check_strong_hl_certificate(SMALL_TARGETS[7], (1, 0), t_max=7)
        # witness: unlooped class below, looped class above, for every t
        assert res == tuple((t, (0, 1)) for t in range(2, 8))

    @pytest.mark.parametrize("bounds", [dict(t_max=1), dict(t_max=-1), dict(t_max=0)])
    def test_certificate_probing_no_length_rejected(self, bounds):
        # t_max < 2 would check no pair; a negative length is refused too
        with pytest.raises(ValueError, match="t_max >= 2"):
            check_strong_hl_certificate(SMALL_TARGETS[7], (1, 0), **bounds)

    def test_certificate_builds_no_path(self, monkeypatch):
        # endpoint counts and path-pair columns are message steps on the
        # orbit quotient: no path is built and no tree is walked
        def refuse(*args):
            raise AssertionError("the certificate built or walked a path")

        monkeypatch.setattr(trees, "path", refuse)
        monkeypatch.setattr(homcount, "_walk", refuse)
        v = verify_hoffman_london(make_capacity_graph(20), 8)
        assert v.matrix_certificate is not None and v.strong_certificate is not None
        assert v.strongly_hoffman_london

    def test_unsorted_ordering_rejected(self):
        res = check_strong_hl_certificate(SMALL_TARGETS[7], (0, 1))
        assert isinstance(res, str)

    def test_dominating_vertex_preserves_certificate(self):
        rng = random.Random(53)
        found = 0
        while found < 10:
            n = rng.randint(1, 5)
            h = TargetGraph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u, n) if rng.random() < 0.5]
            )
            if find_increasing_ordering(h) is None:
                continue
            found += 1
            for b in (1, 2):
                assert find_increasing_ordering(add_looped_dominating(h, b)) is not None


class TestSweeps:
    def test_sidorenko_ok_for_catalog_sample(self):
        for hid in (7, 19, 24, 28):
            ok, violation = sidorenko_check(SMALL_TARGETS[hid], 7)
            assert ok and violation is None

    @pytest.mark.parametrize("sweep", [verify_hoffman_london, sidorenko_check])
    def test_sweep_over_no_order_rejected(self, sweep):
        with pytest.raises(ValueError, match="n_max >= 2"):
            sweep(SMALL_TARGETS[7], 1)

    @pytest.mark.parametrize("sweep, n", [
        (lambda n: verify_hoffman_london(SMALL_TARGETS[23], n), TREE_LIMIT + 1),  # h23: no ordering
        (lambda n: sidorenko_check(make_capacity_graph(3), n), TREE_LIMIT + 1),
        # classify lists no tree: its limit is the certified route's
        (classify_small_targets, extremal.SPIDER_ORDER_LIMIT + 1),
        (lambda n: minimizers(make_capacity_graph(3), n), TREE_LIMIT + 1),
    ], ids=["check-hl", "sidorenko", "classify", "minimize"])
    def test_sweep_past_the_limit_refused_before_any_order(self, monkeypatch, sweep, n):
        # an order past the sweep's limit is refused before any target is
        # refined or any order below it is read
        def refuse(*args):
            raise AssertionError("a target was refined or an order read")

        monkeypatch.setattr(trees, "_check_covered", refuse)
        monkeypatch.setattr(extremal, "_equitable_quotient", refuse)
        with pytest.raises(SizeLimitError, match=f"got n={n}"):
            sweep(n)

    @pytest.mark.parametrize("sweep", [verify_hoffman_london, sidorenko_check, minimizers])
    def test_one_target_sweep_past_the_limit_refines_no_target(self, monkeypatch, sweep):
        # a target with many classes would be refined for nothing; check-hl
        # finds no ordering of folkman+dom's orbits, so it sweeps it too
        def refuse(*args):
            raise AssertionError("the target was refined")

        monkeypatch.setattr(homcount, "_equitable_quotient", refuse)
        monkeypatch.setattr(extremal, "_equitable_quotient", refuse)
        with pytest.raises(SizeLimitError, match=f"got n={TREE_LIMIT + 1}"):
            sweep(make_folkman_plus_dominating(), TREE_LIMIT + 1)

    @pytest.mark.parametrize("sweep", [verify_hoffman_london, sidorenko_check, minimizers])
    def test_one_target_sweep_refines_its_target_once(self, monkeypatch, sweep):
        # the fold and the path and star counts it is read against share
        # one quotient of the target
        quotients = []
        for module in homcount, extremal:
            monkeypatch.setattr(module, "_equitable_quotient",
                                counted(_equitable_quotient, quotients))
        sweep(make_capacity_graph(3), 12)
        assert len(quotients) == 1

    def test_regular_targets_skip_the_fold(self, monkeypatch):
        # 18 of the 28 targets are regular, every edge joining two vertices
        # of one degree; every tree then counts Σ_v deg(v)^(n-1), the closed
        # form classify's first reason rests on. classify refines each
        # target once, whole, with no component cut off it
        regular = [H for H in SMALL_TARGETS.values()
                   if all(H.degree(u) == H.degree(v) for u, v in H.edges)]
        assert len(regular) == 18
        for H in regular:
            for n in range(1, 10):
                count = sum(H.degree(v) ** (n - 1) for v in H.vertices())
                assert {tree_hom(ct.tree, H) for ct in all_trees(n)} == {count}
        refined = []
        monkeypatch.setattr(extremal, "_equitable_quotient", counted(_equitable_quotient, refined))
        classify_small_targets(9)
        assert len(refined) == 28
        assert [H for H, in refined] == list(SMALL_TARGETS.values())

    def test_sidorenko_builds_one_set_of_tables(self, monkeypatch):
        # one quotient and one table for every order
        quotients, tables = [], []
        monkeypatch.setattr(extremal, "_equitable_quotient",
                            counted(_equitable_quotient, quotients))
        monkeypatch.setattr(trees, "_table", counted(trees._table, tables))
        assert sidorenko_check(make_capacity_graph(3), 12) == (True, None)
        assert len(quotients) == 1 and len(tables) == 1


@cache
def _target_fold(hid):
    """Target hid's quotient and bounded fold, its tables built for
    TREE_LIMIT."""
    return extremal._bounded_fold(SMALL_TARGETS[hid], TREE_LIMIT)


def _fold_row(hid, n):
    """The least count at order n from target hid's bounded fold at the
    path's count, and the positions of the trees that attain it."""
    Q, fold = _target_fold(hid)
    kept = fold(n, homcount._path_hom(Q, n))
    least = min(c for _, c in kept)
    return least, [i for i, c in kept if c == least]


@pytest.mark.parametrize("n", range(1, TREE_LIMIT + 1))
def test_balanced_flags_at_each_position(n):
    # the positions of target 19's least count, from its own bounded fold at
    # the path's count, its table built for the largest order, are the
    # balanced-bipartition trees, checked against the tree each free_trees
    # position names, on both sides of the table's depth (TREE_LIMIT // 2
    # vertices) and at both parities of n
    want = []
    for i, parts in enumerate(free_trees(n)):
        adj = trees._adjacency(parts)
        T = Tree.from_edges(n, [(u, v) for u, a in enumerate(adj) for v in a if u < v])
        if has_balanced_bipartition(T):
            want.append(i)
    assert _fold_row(19, n)[1] == want


@cache
def _fold_orders(hid):
    """(n, least count, label set) of target hid at every order 2..TREE_LIMIT,
    read off its own bounded fold: its ties against the tree count, the
    path's count and target 19's ties, the balanced-bipartition trees."""
    orders = []
    for n in range(2, TREE_LIMIT + 1):
        least, tied = _fold_row(hid, n)
        path_count = homcount._path_hom(_target_fold(hid)[0], n)
        labels = {extremal.LABEL_ZERO: least == 0, extremal.LABEL_ALL: len(tied) == tree_count(n),
                  extremal.LABEL_PATHS: path_count == least and len(tied) == 1,
                  extremal.LABEL_BALANCED: tied == _fold_row(19, n)[1]}
        holds = frozenset(lab for lab, held in labels.items() if held)
        orders.append((n, least, holds or frozenset({extremal.LABEL_OTHER})))
    return orders


def _orders(row):
    """(n, least count, label set) per order of a classification row."""
    return [(n, c, labs) for (n, c), (_, labs) in zip(row.min_counts, row.labels)]


@cache
def _classified():
    return {row.target_id: row for row in classify_small_targets(TREE_LIMIT)}


@pytest.mark.parametrize("hid", list(SMALL_TARGETS))
def test_union_fold_and_bounded_fold_give_one_verdict(hid):
    # classify's row, read from a reason per target with no tree listed,
    # against the target's own bounded fold at the path's count at every
    # order up to the enumeration limit: the least count, and every label
    # from the ties against the tree count, the path's count and target
    # 19's ties, which test_balanced_flags_at_each_position checks against
    # the balanced-bipartition trees
    assert _orders(_classified()[hid]) == _fold_orders(hid)


def test_classify_rows_past_the_enumeration_limit():
    # every row at n = 17..100, where no fold reaches, against oracles that
    # share no code with classify: Σ_v d(v)^(n-1) on the regular targets
    # (every edge joins two vertices of one degree), 2^⌈n/2⌉ + 2^⌊n/2⌋ on
    # target 19, P3, whose least trees are the balanced ones, and on the
    # nine others the path's count, strictly below every spider's
    others = 0
    for row in classify_small_targets(100):
        H = SMALL_TARGETS[row.target_id]
        regular = all(H.degree(u) == H.degree(v) for u, v in H.edges)
        others += not regular and row.target_id != 19
        for (n, least), (_, labels) in zip(row.min_counts, row.labels):
            if n <= TREE_LIMIT:  # test_union_fold_and_bounded_fold_give_one_verdict
                continue
            if regular:
                want = sum(H.degree(v) ** (n - 1) for v in H.vertices())
                want_labels = {extremal.LABEL_ALL} | ({extremal.LABEL_ZERO} if want == 0 else set())
            elif row.target_id == 19:
                want, want_labels = 2 ** ((n + 1) // 2) + 2 ** (n // 2), {extremal.LABEL_BALANCED}
            else:
                want, spiders = spider_counts(H, n)
                assert want < min(spiders), (row.target_id, n)
                want_labels = {extremal.LABEL_PATHS}
            assert (least, labels) == (want, want_labels), (row.target_id, n)
    assert others == 9


def test_classify_lists_no_tree_and_runs_no_fold(monkeypatch):
    # every row comes from closed forms, message steps and certificates:
    # no table, tree listing, fold or tree walk is reached
    want = classify_small_targets(TREE_LIMIT)

    def refuse(*args):
        raise AssertionError("classify listed, folded or walked a tree")

    for module, name in ((trees, "_table"), (trees, "free_trees"), (trees, "bounded_fold"),
                         (extremal, "bounded_fold"), (homcount, "_walk")):
        monkeypatch.setattr(module, name, refuse)
    assert classify_small_targets(TREE_LIMIT) == want


def test_classify_refuses_a_target_no_reason_covers(monkeypatch):
    # target 7, a looped vertex joined to an unlooped one, is the first
    # target neither regular nor P3; with no ordering passing, it has no
    # reason, and classify raises rather than guess its labels
    monkeypatch.setattr(extremal, "find_increasing_ordering", lambda H: None)
    with pytest.raises(ValueError, match="target 7: no reason names its minimizers"):
        classify_small_targets(5)


ROUTE_SPECS = ([f"h{hid}" for hid in SMALL_TARGETS] + [f"capacity:{c}" for c in range(1, 7)]
               + [f"wr:{k}" for k in range(1, 5)] + ["hind", "habl:3,2,2", "lpath:7"])
CERTIFIED_SPECS = [spec for spec in ROUTE_SPECS
                   if find_increasing_ordering(parse_target_spec(spec)) is not None]


@cache
def _fold_verdicts(spec):
    """The verdict at every order 2..TREE_LIMIT, read from every tree's count."""
    H = parse_target_spec(spec)
    return tuple(verdict(H, n) for n in range(2, TREE_LIMIT + 1))


def test_route_targets_certified():
    # only h19 (P3) and h23 fail the increasing-columns test
    assert sorted(set(ROUTE_SPECS) - set(CERTIFIED_SPECS)) == ["h19", "h23"]


@pytest.mark.parametrize("spec", CERTIFIED_SPECS)
def test_spider_route_is_the_fold_verdict(spec):
    # check-hl on a certified target lists no tree: its verdicts, from the
    # path's count and the degree test, against every tree's count at every
    # order up to the enumeration limit
    assert verify_hoffman_london(parse_target_spec(spec), TREE_LIMIT).reports == _fold_verdicts(spec)


@pytest.mark.parametrize("spec", CERTIFIED_SPECS)
def test_degree_verdict_is_the_spider_verdict(spec):
    # past the enumeration limit too: at every order 4..60, no three-leg
    # spider counts less than the path, and the path is alone least exactly
    # when every spider counts more (by the leaf grading, every other tree
    # lies above a spider)
    H = parse_target_spec(spec)
    for v in verify_hoffman_london(H, 60).reports[2:]:
        path_count, spiders = spider_counts(H, v.n)
        assert (v.min_count, v.path_is_min) == (path_count, True) and min(spiders) >= path_count
        assert v.path_is_unique_min == (min(spiders) > path_count), (spec, v.n)


@cache
def _oracle_witnesses(spec, s_max):
    """The oracle's witness pairs at every length 2..30, and the ordering."""
    H = parse_target_spec(spec)
    ordering = find_increasing_ordering(H)
    return strict_witness_pairs(H, orbit_partition(H).classes, ordering, 30, s_max), ordering


@pytest.mark.parametrize("spec", CERTIFIED_SPECS + ["capacity:20", "lpath:20"])
def test_strict_certificate_is_the_oracle_witness_scan(spec):
    # the witness pairs read off degrees and walk supports, against powers
    # of the vertex adjacency matrix at every length up to 30
    want, ordering = _oracle_witnesses(spec, 30)
    got = check_strong_hl_certificate(parse_target_spec(spec), ordering, t_max=30)
    assert got == as_certificate(want)


@pytest.mark.parametrize("spec", CERTIFIED_SPECS)
def test_endpoint_counts_past_the_degrees_change_no_witness(spec):
    # lemma (i) on the oracle alone: on a passing ordering, classes a walk
    # joins have strictly ordered endpoint counts at every s up to 30
    # exactly when their degrees (s = 2) are strictly ordered
    assert _oracle_witnesses(spec, 2) == _oracle_witnesses(spec, 30)


@pytest.mark.parametrize("spec", CERTIFIED_SPECS)
def test_strong_certificate_is_found_exactly_off_regular_targets(spec):
    # lemma (ii) through check-hl's route: a walk of every length joins two
    # classes of unequal degrees exactly when some edge does
    H = parse_target_spec(spec)
    got = verify_hoffman_london(H, 30).strong_certificate
    assert (got is not None) == (not extremal._regular(_equitable_quotient(H)))


def test_certificate_builds_no_big_integer(monkeypatch):
    # degrees and walk supports only: no message step, endpoint count or
    # column is formed, on 101 classes at 200 lengths
    H = make_capacity_graph(100)
    ordering = find_increasing_ordering(H)

    def refuse(*args):
        raise AssertionError("the certificate formed a count")

    for module in homcount, extremal:
        for name in ("_steps", "_message", "_column"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    got = check_strong_hl_certificate(H, ordering, t_max=200)
    assert isinstance(got, tuple) and len(got) == 199


def test_a_faulty_spider_scan_disagrees_with_the_fold(monkeypatch):
    # the classify fold comparison has teeth: with the degree test that
    # stands in for the spider scan reading every target as regular (all
    # trees tie), some row differs from the bounded fold's at some n <= 16
    monkeypatch.setattr(extremal, "_regular", lambda Q: True)
    rows = classify_small_targets(TREE_LIMIT)
    assert [_orders(row) for row in rows] != [_fold_orders(hid) for hid in SMALL_TARGETS]


def test_a_faulty_spider_scan_disagrees_with_the_fold_verdicts(monkeypatch):
    # the same faulty degree test has teeth for check-hl too
    monkeypatch.setattr(extremal, "_regular", lambda Q: True)
    got = [verify_hoffman_london(parse_target_spec(spec), TREE_LIMIT).reports
           for spec in CERTIFIED_SPECS]
    assert got != [_fold_verdicts(spec) for spec in CERTIFIED_SPECS]


def test_check_hl_on_a_certified_target_runs_no_fold(monkeypatch, capsys):
    # the bounded fold, its tables and the tree listing are never reached
    def refuse(*args):
        raise AssertionError("check-hl folded or listed a tree")

    for module, name in ((extremal, "_bounded_fold"), (extremal, "bounded_fold"),
                         (trees, "_table"), (trees, "free_trees"), (homcount, "_walk")):
        monkeypatch.setattr(module, name, refuse)
    argv = ["check-hl", "--target", "capacity:3", "--n-max", str(TREE_LIMIT), "--strong", "--rows"]
    assert main(argv) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert rows[-1] == ["verdict", "1"]
    assert rows[:-3] == [["n", str(v.n), str(v.min_count), "1", "1"]
                         for v in _fold_verdicts("capacity:3")]


def test_minimize_codes_a_strict_minimizer_without_the_tree_listing(monkeypatch):
    # the path alone is least: its code comes from the path itself, so no
    # tree is listed or coded off the listing; a tie still lists its codes
    H = make_capacity_graph(3)
    want = minimizers(H, TREE_LIMIT)
    tie = minimizers(SMALL_TARGETS[19], 6)
    balanced = sorted(canonical_code(ct.tree) for ct in all_trees(6)
                      if has_balanced_bipartition(ct.tree))
    assert tie.minimizers == tuple(balanced) and len(balanced) > 1

    def refuse(*args):
        raise AssertionError("minimize listed the trees")

    monkeypatch.setattr(trees, "free_trees", refuse)
    monkeypatch.setattr(extremal, "tree_codes", refuse)
    assert minimizers(H, TREE_LIMIT) == want
    assert want.minimizers == (canonical_code(path(TREE_LIMIT)),) and want.path_is_unique_min


def test_path_target_counts_are_two_powers_of_the_sides():
    # hom(T, a-b-c) = 2^|X| + 2^|Y|: the identity the balanced flags rest on,
    # with no fold involved
    for n in range(1, 13):
        for ct in all_trees(n):
            x, y = bipartition(ct.tree)
            assert tree_hom(ct.tree, SMALL_TARGETS[19]) == 2 ** len(x) + 2 ** len(y)


def test_classify_builds_no_path(monkeypatch):
    # each order's path count comes from the quotient, not a built path
    def refuse(*args):
        raise AssertionError("classify built or walked a path")

    monkeypatch.setattr(trees, "path", refuse)
    monkeypatch.setattr(homcount, "_walk", refuse)
    assert len(classify_small_targets(9)) == 28


class _Local(_Record):
    """A record declared outside the package: copies and pickles find it by
    its own module."""

    __slots__ = ()
    first: int
    second: int


@pytest.mark.parametrize("cls, fields", [
    (_Local, ("first", "second")),
    (SimilarityMatrix, ("k", "m", "sizes", "ordering")),
    (MinimizerReport, ("n", "min_count", "minimizers", "path_is_min", "path_is_unique_min",
                       "max_count", "star_is_max")),
    (OrderVerdict, ("n", "min_count", "path_is_min", "path_is_unique_min")),
    (_Shapes, ("children", "size", "end")),
    (HLVerdict, ("n_max", "reports", "matrix_certificate", "strong_certificate")),
    (ClassificationRow, ("target_id", "min_counts", "labels", "summary")),
    (CanonicalTree, ("tree", "code")),
    (Quotient, ("class_of", "sizes", "rows")),
])
def test_record_fields_in_order(cls, fields):
    rec = cls(*range(len(fields)))
    assert [getattr(rec, f) for f in fields] == list(range(len(fields)))
    assert rec == cls(**dict(zip(fields, range(len(fields)))))
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], -1)
    # a tuple with no instance dict, whose annotated field lines name its fields
    assert isinstance(rec, tuple) and not hasattr(rec, "__dict__")
    assert cls._fields == fields == tuple(cls.__annotations__)
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{f}={i}' for i, f in enumerate(fields))})"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls and back == rec
    for back in copy.copy(rec), copy.deepcopy(rec):
        assert type(back) is cls and back == rec


@pytest.mark.parametrize("args, kwargs, message", [
    ((1, 2), {}, "OrderVerdict() takes 4 fields, got 2"),
    ((), dict(n=1, min_count=2, path_is_min=True),
     "OrderVerdict() missing field 'path_is_unique_min'"),
    ((1, 2, True, True), dict(extra=1), "OrderVerdict() got unexpected fields ['extra']"),
])
def test_record_refuses_wrong_fields(args, kwargs, message):
    with pytest.raises(TypeError) as exc:
        OrderVerdict(*args, **kwargs)
    assert str(exc.value) == message


def test_record_properties():
    H = make_widom_rowlinson(3)
    Q = orbit_partition(H)
    assert Q.k == len(Q.classes) == 2
    v = verify_hoffman_london(H, 6)
    assert v.hoffman_london and v.strongly_hoffman_london
    tie = verify_hoffman_london(SMALL_TARGETS[6], 6)  # unlooped K_2: all trees tie
    assert tie.hoffman_london and not tie.strongly_hoffman_london
