import random

import pytest

from treehom import (
    SizeLimitError,
    Tree,
    all_trees,
    bare_path,
    canonical_code,
    kc_closure,
    kc_move,
    kc_successors,
    path,
    star,
    tree_count,
)
from treehom import trees as trees_module
from treehom.trees import TREE_LIMIT, kc_site_count, kc_sites
from oracles import (
    has_balanced_bipartition, otter_tree_count, prufer_decode, prufer_tree_count, tree_code,
)


def relabel(t: Tree, perm: list[int]) -> Tree:
    return Tree.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges])


class TestCanonicalCode:
    def test_invariant_under_relabeling(self):
        rng = random.Random(3)
        for ct in all_trees(7):
            for _ in range(5):
                perm = list(range(7))
                rng.shuffle(perm)
                assert canonical_code(relabel(ct.tree, perm)) == ct.code

    def test_distinct_classes_distinct_codes(self):
        for n in range(2, 9):
            codes = {ct.code for ct in all_trees(n)}
            assert len(codes) == tree_count(n)

    def test_path_vs_star(self):
        assert canonical_code(path(5)) != canonical_code(star(5))
        assert canonical_code(path(3)) == canonical_code(star(3))

    def test_code_matches_the_leaf_stripping_oracle(self):
        # centers off two searches against leaf stripping, and the codes
        # against a depth-first AHU string, each tree randomly relabelled
        rng = random.Random(16)

        def check(adj):
            perm = list(range(len(adj)))
            rng.shuffle(perm)
            moved = [[] for _ in adj]
            for v, out in enumerate(adj):
                moved[perm[v]] = [perm[u] for u in out]
            assert trees_module._code(moved) == tree_code(moved)

        for n in range(1, 13):
            for parts in trees_module.free_trees(n):
                check(trees_module._adjacency(parts))
        for _ in range(30):
            n = rng.randint(50, 300)
            check(Tree.from_edges(n, prufer_decode(
                tuple(rng.randrange(n) for _ in range(n - 2)), n))._adj)
        spider, n = [], 1
        for leg in range(1, 41):  # legs of 1 to 40 vertices from hub 0
            spider += [(0, n)] + [(v, v + 1) for v in range(n, n + leg - 1)]
            n += leg
        for t in (path(2000), star(2000), Tree.from_edges(n, spider)):
            check(t._adj)


class TestEnumeration:
    def test_counts_match_prufer_oracle(self):
        for n in range(1, 9):
            assert tree_count(n) == prufer_tree_count(n)

    def test_counts_match_recurrence_oracle(self):
        for n in range(1, TREE_LIMIT + 1):
            assert tree_count(n) == otter_tree_count(n)

    def test_count_table_against_a_listing(self):
        # num[r][b] against the sequences it counts, listed: every bound b
        # for r <= 10, and the root bound of every order
        t, num = trees_module._shapes(), trees_module._counts()
        for r in range(11):
            assert num[r] == [sum(1 for _ in trees_module._multisets(t, r, b))
                              for b in range(len(t.size) + 1)]
        for n in range(1, TREE_LIMIT + 1):
            b = t.end[(n - 1) // 2]
            assert num[n - 1][b] == sum(1 for _ in trees_module._multisets(t, n - 1, b))

    def test_counts_match_recurrence_unlisted(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("tree_count listed the trees")

        monkeypatch.setattr(trees_module, "free_trees", refuse)
        for n in range(1, TREE_LIMIT + 1):
            assert tree_count(n) == otter_tree_count(n)

    def test_limit_enforced(self):
        with pytest.raises(SizeLimitError):
            all_trees(TREE_LIMIT + 1)

    def test_order_below_one_refused(self):
        with pytest.raises(SizeLimitError) as exc:
            tree_count(0)
        assert str(exc.value) == "tree enumeration limited to 1..16, got n=0"

    @pytest.mark.parametrize("build, message", [
        (lambda: path(0), "path needs n >= 1"),
        (lambda: star(1), "star needs n >= 2"),
        (lambda: bare_path(path(4), 1, 1), "KC move needs two distinct vertices"),
    ])
    def test_degenerate_shapes_refused(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_all_have_right_order(self):
        for ct in all_trees(6):
            assert ct.tree.n == 6


class TestKCMove:
    def test_bare_path_rejects_leaf_endpoint(self):
        with pytest.raises(ValueError, match="leaf"):
            bare_path(path(4), 0, 2)

    def test_bare_path_rejects_branching_internal_vertex(self):
        # spider: center 0 with three legs of length 2
        t = Tree.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        with pytest.raises(ValueError, match="degree"):
            bare_path(t, 1, 3)  # passes through the degree-3 center

    @pytest.mark.parametrize("v_left, v_right, bad", [
        (-2, 2, -2), (1, 6, 6), (1, -5, -5), (6, 6, 6), (7, 0, 7)])
    def test_endpoint_outside_the_tree_refused(self, v_left, v_right, bad):
        # a negative vertex would alias another one; the check comes before
        # the distinctness and leaf checks, so (6, 6) and the leaf 0 are not
        # what is named
        for move in bare_path, kc_move:
            with pytest.raises(ValueError, match=f"endpoint {bad} is not a vertex of the tree"):
                move(path(6), v_left, v_right)

    def test_move_preserves_order(self):
        for ct in all_trees(7):
            for succ in kc_successors(ct.tree):
                assert succ.tree.n == 7

    def test_moves_grade_trees_by_leaves(self):
        # what check-hl's certified route rests on: a KC move adds exactly one
        # leaf, and every tree with at least three leaves is some tree's
        # move, so every tree but the path lies above a three-leg spider
        def leaves(t):
            return sum(len(out) == 1 for out in t._adj)

        for n in range(4, 12):
            reached = set()
            for ct in all_trees(n):
                for succ in kc_successors(ct.tree):
                    assert leaves(succ.tree) == leaves(ct.tree) + 1
                    reached.add(succ.code)
            assert reached == {ct.code for ct in all_trees(n) if leaves(ct.tree) >= 3}

    def test_path_moves_toward_star(self):
        # a single move on P_4's two middle vertices yields the star
        moved = kc_move(path(4), 1, 2)
        assert canonical_code(moved) == canonical_code(star(4))

    def test_successors_glue_each_site_without_bare_path(self, monkeypatch):
        # the same trees, on the same labels, as a kc_move per site (a
        # bare_path search and a validated Tree each), on every tree with up
        # to 9 vertices, as all_trees labels it and relabelled
        def by_moves(t):
            found = {}
            for vl, vr in kc_sites(t):
                moved = kc_move(t, vl, vr)
                found.setdefault(canonical_code(moved), moved)
            return tuple((found[c], c) for c in sorted(found))

        rng = random.Random(9)
        cases = [t for n in range(1, 10) for ct in all_trees(n)
                 for t in (ct.tree, relabel(ct.tree, rng.sample(range(n), n)))]
        want = [by_moves(t) for t in cases]

        def refuse(*args):
            raise AssertionError("kc_successors called bare_path")

        monkeypatch.setattr(trees_module, "bare_path", refuse)
        assert [kc_successors(t) for t in cases] == want

    def test_star_has_no_successors(self):
        assert kc_successors(star(6)) == ()

    def test_closure_from_path_covers_everything(self):
        for n in range(2, 9):
            assert kc_closure(path(n)) == {ct.code for ct in all_trees(n)}

    def test_site_count_is_the_number_of_sites(self):
        # chains of degree-2 vertices, edges between branch vertices, and
        # paths, whose one chain has two leaves outside it
        for n in range(1, 11):
            for ct in all_trees(n):
                assert kc_site_count(ct.tree) == len(kc_sites(ct.tree))
        rng = random.Random(444)
        for _ in range(200):
            n = rng.randint(3, 150)
            seq = tuple(rng.randrange(n) for _ in range(n - 2))
            t = Tree.from_edges(n, prufer_decode(seq, n))
            assert kc_site_count(t) == len(kc_sites(t))
        assert kc_site_count(path(3000)) == 2998 * 2997 // 2
        # a spider: three legs of 20 vertices from one centre, each leg's 19
        # degree-2 vertices and the centre one run of 20 non-leaves
        spider = Tree.from_edges(61, [(0 if i % 20 == 1 else i - 1, i) for i in range(1, 61)])
        assert kc_site_count(spider) == len(kc_sites(spider)) == 3 * 20 * 19 // 2


class TestBalancedBipartition:
    def test_paths_always_balanced(self):
        for n in range(2, 10):
            assert has_balanced_bipartition(path(n))

    def test_stars_unbalanced_from_four(self):
        for n in range(4, 10):
            assert not has_balanced_bipartition(star(n))
        assert has_balanced_bipartition(star(3))  # sizes (1, 2) differ by 1
