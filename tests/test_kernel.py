"""The exact envelope kernel behind diameter and envelope, and its memo.

Span areas and envelopes are checked against the slow grid referees in
``kinclust.oracle`` well beyond brute-force sizes and on degenerate line
families; metamorphic properties are checked with hypothesis; and the
per-instance kernel must leave the value semantics of TrajectorySet alone.
"""

import copy
import dataclasses
import pickle
import random
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinclust import (
    GeneratorConfig,
    Trajectory,
    TrajectorySet,
    bsearch,
    build_poset,
    compute_holes,
    diameter,
    dumps_instance,
    envelope,
    generate_instance,
    gp,
    md_wellsep_dp,
    pairwise_diameter,
    parse_instance,
    sd_exact_goodseq,
    sd_wellsep_dp,
)
from kinclust.geometry import SpanKernel, _beats, _picked, _span_side, _upper_chain
from kinclust.oracle import (
    bottom_leftmost_index,
    envelope_grid,
    min_pair_area_by_pairs,
    poset_by_inclusion,
    span_area_grid,
)
from kinclust import sum_diameter
from kinclust.sum_diameter import ChainTable

from conftest import (
    DEGENERATE_FAMILIES,
    make_instance,
    mirrored,
    permuted,
    scaled,
    time_reversed,
    translated,
)


def _assert_matches_referees(S, C):
    assert diameter(S, C) == span_area_grid(S, C)
    if C:
        for side in ("left", "right"):
            assert envelope(S, C, side) == envelope_grid(S, C, side)


def _subsets(rng, n, count):
    yield range(n)
    for _ in range(count):
        yield rng.sample(range(n), rng.randint(1, n))


class TestKernelMatchesReferees:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_random_subsets_beyond_brute_force(self, n):
        rng = random.Random(n)
        for seed in range(3 if n < 64 else 2):
            S = make_instance(900 + seed, n)
            for C in _subsets(rng, n, 4 if n < 64 else 1):
                _assert_matches_referees(S, frozenset(C))

    def test_fine_and_coarse_grids(self):
        rng = random.Random(7)
        for grid in (1, 3, 1000):
            S = make_instance(31, 24, grid=grid)
            for C in _subsets(rng, 24, 5):
                _assert_matches_referees(S, frozenset(C))

    @pytest.mark.parametrize(
        "pairs", list(DEGENERATE_FAMILIES.values()), ids=list(DEGENERATE_FAMILIES)
    )
    def test_degenerate_families(self, pairs):
        S = TrajectorySet.from_pairs(pairs)
        n = len(S)
        rng = random.Random(n)
        for C in [range(n), *_subsets(rng, n, 6), [0], [n - 1]]:
            _assert_matches_referees(S, frozenset(C))

    @pytest.mark.parametrize(
        "pairs",
        [*(make_instance(n, n) for n in range(2, 13)), *DEGENERATE_FAMILIES.values()],
        ids=[*(f"n={n}" for n in range(2, 13)), *DEGENERATE_FAMILIES],
    )
    def test_hole_walls(self, pairs):
        # A bounded hole lies between the right side of its left set and the
        # left side of the rest, each clipped to the hole's time window.
        S = pairs if isinstance(pairs, TrajectorySet) else TrajectorySet.from_pairs(pairs)
        full = S.all_indices()
        for h in compute_holes(S):
            if h.kind != "bounded":
                continue
            lo, hi = h.t_lo, h.t_hi
            for members, side, pick in ((h.left_set, "right", max), (full - h.left_set, "left", min)):
                inside = [p for p in envelope_grid(S, members, side) if lo < p[0] < hi]
                expected = (
                    (lo, pick(S[i].position(lo) for i in members)),
                    *inside,
                    (hi, pick(S[i].position(hi) for i in members)),
                )
                assert _span_side(S.kernel, S.kernel.mask(members), side, lo, hi) == expected

    def test_empty_cluster(self):
        S = make_instance(3, 5)
        assert diameter(S, ()) == span_area_grid(S, ()) == 0
        with pytest.raises(ValueError):
            envelope_grid(S, (), "left")

    def test_index_validation_kept(self):
        S = make_instance(3, 5)
        for bad in ({0, 5}, {-1, 2}, {0, True}, {0, 1.0}):
            with pytest.raises(ValueError):
                diameter(S, bad)
            with pytest.raises(ValueError):
                S.kernel.mask(bad)
        # A valid cluster memoized first must not let an equal frozenset
        # with non-int members through.
        diameter(S, {0, 1})
        with pytest.raises(ValueError):
            diameter(S, {0, True})


class TestPairRows:
    """Pairwise span areas: the kernel's least pair, and nothing kept per pair."""

    @staticmethod
    def _assert_least_pair(S):
        areas = [pairwise_diameter(S[i], S[j]) for i in range(len(S)) for j in range(i)]
        if not areas:
            with pytest.raises(ValueError):
                S.kernel.min_pair_area()
            return
        assert S.kernel.min_pair_area() == min(areas) == min_pair_area_by_pairs(S)

    @pytest.mark.parametrize("n", [2, 9, 33, 64])
    def test_random_instances(self, n):
        for seed in range(3):
            self._assert_least_pair(make_instance(19000 + seed, n))

    @pytest.mark.parametrize(
        "pairs", list(DEGENERATE_FAMILIES.values()), ids=list(DEGENERATE_FAMILIES)
    )
    def test_degenerate_families(self, pairs):
        # pencil-mid puts every midpoint at one point, which prunes nothing.
        self._assert_least_pair(TrajectorySet.from_pairs(pairs))

    def test_max_diameter_keeps_no_pair_areas(self):
        # gp at D = 0 makes every member a representative; a memo of each
        # representative's pairwise areas would hold about 5 MB at this n.
        S = make_instance(1, 300, grid=100)
        S.kernel  # built before tracing: only what the solvers keep is measured
        tracemalloc.start()
        try:
            clusters = gp(S, 0)
            solution = bsearch(S, 150)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(clusters) == 300 and len(solution.clustering) <= 150
        assert held <= 500_000

    @pytest.mark.parametrize(
        "grid, n", [(1, 100), (2, 100), (10, 100), (100, 100), (1000, 100), (1000, 1000)]
    )
    def test_min_pair_area_matches_every_pair(self, grid, n):
        # The midpoint pruning against the pass over every pair; on coarse
        # grids many members share a midpoint, which prunes nothing.
        for seed in range(3 if n < 1000 else 1):
            S = make_instance(19100 + seed, n, grid=grid)
            assert S.kernel.min_pair_area() == min_pair_area_by_pairs(S)

    def test_min_pair_area_needs_two_members(self):
        with pytest.raises(ValueError):
            TrajectorySet.from_pairs([("0", "1")]).kernel.min_pair_area()


class TestIntMasks:
    """The kernel's int-mask encoding against the frozenset referees.

    The chain table's block areas come from the XOR of two elements'
    masks, and ``diameter`` encodes its cluster afresh; both must land on
    the memo entry of the same member set, checked here against the grid
    referee, which shares no code with the kernel.
    """

    @staticmethod
    def _blocks(S, count=None, rng=None):
        """(block, area) of every chain-table entry, or of ``count`` of them."""
        sd_wellsep_dp(S, 1)
        table = S.kernel.chain_table
        entries = [(e, i) for e, sups in enumerate(table.succ) for i in range(len(sups))]
        if count is not None:
            entries = rng.sample(entries, count)
        for e, i in entries:
            block = S.kernel.members(table.masks[table.succ[e][i]] ^ table.masks[e])
            yield block, Fraction(table.nums[e][i], table.dens[e][i])

    @pytest.mark.parametrize("seed", range(3))
    def test_table_blocks_match_grid(self, seed):
        S = make_instance(25000 + seed, 6 + 2 * seed)
        for block, area in self._blocks(S):
            assert area == span_area_grid(S, block)

    @pytest.mark.parametrize(
        "name", ["pencil-mid", "pencil-off-grid", "all-parallel", "parallel-mixed"]
    )
    def test_table_blocks_match_grid_on_degenerate_families(self, name):
        S = TrajectorySet.from_pairs(DEGENERATE_FAMILIES[name])
        for block, area in self._blocks(S):
            assert area == span_area_grid(S, block)

    def test_table_blocks_sample_at_32(self):
        S = make_instance(25100, 32)
        for block, area in self._blocks(S, 200, random.Random(32)):
            assert area == span_area_grid(S, block)

    def test_diameter_after_a_warm_memo(self):
        S = make_instance(25200, 12)
        sd_wellsep_dp(S, 3)
        sd_exact_goodseq(S, 3)
        kernel = S.kernel
        warm = len(kernel.spans)
        rng = random.Random(12)
        blocks = [block for block, _ in self._blocks(S, 60, rng) if len(block) > 1]
        for C in blocks:
            assert diameter(S, C) == span_area_grid(S, C)
        assert len(kernel.spans) == warm  # every block was a memo hit
        for C in _subsets(rng, 12, 60):
            assert diameter(S, C) == span_area_grid(S, C)

    def test_memo_keys_are_masks_and_successors_stay_unbuilt(self):
        S = make_instance(25300, 10)
        sd_wellsep_dp(S, 3)
        kernel = S.kernel
        assert kernel.spans and all(type(key) is int for key in kernel.spans)
        poset = build_poset(S, compute_holes(S))
        table = ChainTable(kernel, poset)
        # The table reads the poset's order; the frozenset view stays unbuilt.
        assert table.succ is poset.succ
        assert "successors" not in vars(poset)

    def test_poset_and_table_decode_no_elements(self):
        # The table reads the poset's masks; the frozensets of its
        # elements are built only when a caller reads them.
        S = make_instance(25301, 10)
        kernel = S.kernel
        poset = build_poset(S, compute_holes(S))
        assert "elements" not in vars(poset)
        table = ChainTable(kernel, poset)
        assert "elements" not in vars(poset)
        assert table.masks is poset.masks
        assert poset.elements == tuple(map(kernel.members, poset.masks))

    @pytest.mark.parametrize("seed", [25310, 25311, 25312])
    def test_warm_chain_table_keeps_the_referee_poset(self, seed):
        S = make_instance(seed, 9)
        sd_wellsep_dp(S, 3)
        md_wellsep_dp(S, 4)
        table = S.kernel.chain_table
        reference = poset_by_inclusion(S, compute_holes(S))
        assert tuple(map(S.kernel.members, table.masks)) == reference.elements
        assert table.masks == reference.masks
        assert table.succ == reference.succ

    def test_leftmost_matches_referee(self):
        rng = random.Random(5)
        for seed in range(5):
            S = make_instance(25400 + seed, 9)
            for C in _subsets(rng, 9, 10):
                C = frozenset(C)
                first = next(i for i in S.kernel.leftmost if i in C)
                assert first == bottom_leftmost_index(S, C)


class TestChainTableMatchesSpanArea:
    """Every chain-table entry against ``span_area`` on a fresh kernel.

    The table inherits each block's chains from a block one member
    smaller; the referee is an equal instance whose kernel computes each
    block's area from all of its lines and shares no memo with the table.
    """

    @staticmethod
    def check(make, warm=False):
        S, R = make(), make()
        if warm:
            # Blocks the memo already holds give the table no chains, so
            # their supersets must find another parent or start afresh.
            poset = build_poset(S, compute_holes(S))
            masks = poset.masks
            blocks = sorted({masks[s] ^ C for C, sups in zip(masks, poset.succ) for s in sups})
            for D in random.Random(len(S)).sample(blocks, len(blocks) // 2):
                S.kernel.span_area(D)
        sd_wellsep_dp(S, 1)
        table, kernel = S.kernel.chain_table, R.kernel
        masks = [kernel.mask(S.kernel.members(mask)) for mask in table.masks]
        for C, sups, nums, dens in zip(masks, table.succ, table.nums, table.dens):
            assert len(sups) == len(nums) == len(dens)
            for s, num, den in zip(sups, nums, dens):
                area = kernel.span_area(masks[s] ^ C)
                assert (num, den) == (area.numerator, area.denominator)

    @pytest.mark.parametrize("n", [8, 16, 24, 48])
    def test_generated(self, n):
        self.check(lambda: make_instance(25500 + n, n))

    @pytest.mark.parametrize("n", [8, 16])
    def test_generated_on_a_warm_memo(self, n):
        self.check(lambda: make_instance(25600 + n, n), warm=True)

    @pytest.mark.parametrize(
        "pairs",
        [
            pytest.param(DEGENERATE_FAMILIES[name], id=name)
            for name in (
                "pencil-mid", "pencil-off-grid", "pencil-at-0", "pencil-at-1",
                "pencils-at-both-edges", "all-parallel", "parallel-mixed", "single",
            )
        ]
        + [
            # three slopes, four parallel lines each
            pytest.param([(i, i + d) for d in (-3, 0, 2) for i in range(4)], id="repeated-slopes"),
            # two pencils sharing their middle line
            pytest.param([(i, -i) for i in range(-2, 3)] + [(i, 2 * i) for i in (-2, -1, 1, 2)],
                         id="two-pencils"),
            pytest.param([(0, 1), (1, 0)], id="two-crossing"),
            pytest.param([(0, 0), (1, 1)], id="two-parallel"),
        ],
    )
    def test_degenerate_families(self, pairs):
        self.check(lambda: TrajectorySet.from_pairs(pairs))
        self.check(lambda: TrajectorySet.from_pairs(pairs), warm=True)


class TestBeats:
    """``_beats`` decides whether adding a line changes a clipped chain."""

    def test_agrees_with_a_rebuild(self):
        # Slopes and intercepts in [-3, 3] make parallel lines, lines through
        # a breakpoint, and touches at t = 0 and t = 1 common.
        rng = random.Random(2800)
        values = range(-3, 4)
        changed = 0
        for _ in range(20000):
            lines = rng.sample([(v, a) for v in values for a in values], rng.randint(2, 7))
            line, rest = lines[0], sorted(lines[1:])
            chain = _upper_chain(rest)
            rebuilt = _upper_chain(sorted((*chain, line)))
            assert _beats(chain, line) == (rebuilt != chain)
            # The rebuild from the clipped chain is the chain of all the lines.
            assert rebuilt == _upper_chain(sorted(lines))
            changed += rebuilt != chain
        assert 2000 < changed < 18000


class TestChainTableInheritance:
    """The table finds its blocks' parents; the areas alone would not show it."""

    def test_few_blocks_start_from_all_of_their_lines(self, monkeypatch):
        # A cold table on this instance starts 205 of its 20,425 blocks from
        # all of their lines; one that found no parent would start nearly all.
        S = generate_instance(GeneratorConfig(seed=3, n=32))
        poset = build_poset(S, compute_holes(S))
        pairs = sum(map(len, poset.succ))
        calls = 0
        chains = SpanKernel.chains

        def counted(kernel, D):
            nonlocal calls
            calls += 1
            return chains(kernel, D)

        monkeypatch.setattr(SpanKernel, "chains", counted)
        ChainTable(S.kernel, poset)
        assert 0 < calls <= pairs * 2 // 100

    def test_inherited_blocks_rebuild_about_one_chain(self, monkeypatch):
        # On the instance above, a cold table rebuilds 9,448 chains for its
        # 8,571 inherited blocks: the new line beats only one of the parent's
        # two chains in most blocks.  Rebuilding both is 2 per block.
        S = generate_instance(GeneratorConfig(seed=3, n=32))
        poset = build_poset(S, compute_holes(S))
        rebuilds = fresh = 0
        rebuild, chains = sum_diameter._upper_chain, SpanKernel.chains

        def counted_rebuild(lines):
            nonlocal rebuilds
            rebuilds += 1
            return rebuild(lines)

        def counted_fresh(kernel, D):
            nonlocal fresh
            fresh += 1
            return chains(kernel, D)

        monkeypatch.setattr(sum_diameter, "_upper_chain", counted_rebuild)
        monkeypatch.setattr(SpanKernel, "chains", counted_fresh)
        ChainTable(S.kernel, poset)
        inherited = len(S.kernel.spans) - fresh
        assert 0 < rebuilds <= inherited * 6 // 5

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_succ_rows_run_by_size(self, n):
        # The table reads each element's one-larger supersets as the first
        # entries of its row.
        for S in (make_instance(25700 + n, n), TrajectorySet.from_pairs((i, -i) for i in range(n))):
            poset = build_poset(S, compute_holes(S))
            sizes = [mask.bit_count() for mask in poset.masks]
            for row in poset.succ:
                assert all(sizes[a] <= sizes[b] for a, b in zip(row, row[1:]))


# --- metamorphic properties ---------------------------------------------

_COORD = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_INSTANCE = st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=64, unique=True)
_SHIFT = st.fractions(min_value=-50, max_value=50, max_denominator=30)
_SCALE = st.fractions(min_value=-8, max_value=8, max_denominator=9).filter(bool)
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _cluster(data, n):
    return frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))


@_PROPERTY
@given(_INSTANCE, _SHIFT, _SHIFT, st.data())
def test_translation_and_common_drift_invariance(pairs, c0, c1, data):
    S = TrajectorySet.from_pairs(pairs)
    C = _cluster(data, len(S))
    value = diameter(S, C)
    assert diameter(translated(pairs, c0, c0), C) == value
    assert diameter(translated(pairs, c0, c1), C) == value


@_PROPERTY
@given(_INSTANCE, _SCALE, st.data())
def test_scaling_multiplies_by_abs(pairs, a, data):
    S = TrajectorySet.from_pairs(pairs)
    C = _cluster(data, len(S))
    assert diameter(scaled(pairs, a), C) == abs(a) * diameter(S, C)


@_PROPERTY
@given(_INSTANCE, st.data())
def test_mirror_time_reversal_and_permutation_invariance(pairs, data):
    S = TrajectorySet.from_pairs(pairs)
    n = len(S)
    C = _cluster(data, n)
    value = diameter(S, C)
    assert diameter(mirrored(pairs), C) == value
    assert diameter(time_reversed(pairs), C) == value
    permuted_set, where = permuted(S, data.draw(st.permutations(range(n))))
    assert diameter(permuted_set, {where[i] for i in C}) == value


@_PROPERTY
@given(_INSTANCE, st.data())
def test_monotone_under_inclusion(pairs, data):
    S = TrajectorySet.from_pairs(pairs)
    big = _cluster(data, len(S))
    small = frozenset(data.draw(st.sets(st.sampled_from(sorted(big)))))
    assert diameter(S, small) <= diameter(S, big)


@_PROPERTY
@given(_INSTANCE, st.data())
def test_mask_round_trip(pairs, data):
    # Index order: member i of n carries the flag 1 << (n - 1 - i).
    S = TrajectorySet.from_pairs(pairs)
    kernel = S.kernel
    n = len(S)
    C = _cluster(data, n)
    mask = kernel.mask(C)
    assert mask == sum(1 << (n - 1 - i) for i in C)
    assert kernel.members(mask) == C
    assert mask.bit_count() == len(C)
    assert list(_picked(kernel.lines, mask)) == [kernel.lines[i] for i in sorted(C)]


class TestMaskCodec:
    """``kernel.mask`` and ``kernel.members`` in time and memory linear in n."""

    def test_mask_memory_is_linear_in_n(self):
        # A table of the n flags 1 << (n - 1 - i) would hold n² / 2 bits,
        # over 25 MB at this n; the kernel and the mask take about 6 MB.
        n = 20_000
        S = make_instance(1, n, grid=100)
        tracemalloc.start()
        try:
            mask = S.kernel.mask(range(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask == (1 << n) - 1
        assert peak <= 10_000_000

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000])
    def test_round_trips(self, n):
        kernel = TrajectorySet.from_pairs([(i, 0) for i in range(n)]).kernel
        rng = random.Random(n)
        clusters = [(), range(n), (0,), (n - 1,), {0, n - 1}]
        clusters += [rng.sample(range(n), rng.randint(1, n)) for _ in range(20)]
        for C in map(frozenset, clusters):
            mask = kernel.mask(C)
            assert mask == sum(1 << (n - 1 - i) for i in C)
            assert kernel.members(mask) == C


_TRAJECTORY = st.builds(Trajectory, _COORD, _COORD)


@_PROPERTY
@given(_TRAJECTORY, _TRAJECTORY, _TRAJECTORY)
def test_pairwise_diameter_is_a_metric(a, b, c):
    ab = pairwise_diameter(a, b)
    assert ab == pairwise_diameter(b, a)
    assert pairwise_diameter(a, a) == 0
    assert (ab == 0) == (a == b)
    assert pairwise_diameter(a, c) <= ab + pairwise_diameter(b, c)


# --- value semantics --------------------------------------------------------


def _solve_all(S):
    return (
        sd_exact_goodseq(S, 3),
        sd_wellsep_dp(S, 3),
        md_wellsep_dp(S, 3),
        bsearch(S, 3),
        compute_holes(S),
        build_poset(S, compute_holes(S)).elements,
    )


class TestValueSemantics:
    def test_kernel_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(TrajectorySet)] == ["trajectories"]

    def test_eq_hash_repr_unchanged_by_a_solve(self):
        S = make_instance(5, 9)
        twin = parse_instance(dumps_instance(S))
        before = (hash(S), repr(S), S == twin)
        _solve_all(S)
        assert S.kernel.spans and S.kernel.holes is not None
        assert (hash(S), repr(S), S == twin) == before
        assert hash(S) == hash(twin)

    def test_pickle_and_copy_drop_the_kernel(self):
        S = make_instance(6, 9)
        fresh = pickle.dumps(S)
        results = _solve_all(S)
        assert pickle.dumps(S) == fresh
        for clone in (pickle.loads(pickle.dumps(S)), copy.copy(S), copy.deepcopy(S)):
            assert clone == S and "kernel" not in vars(clone)
            assert _solve_all(clone) == results

    def test_equal_distinct_sets_give_identical_results(self):
        S = make_instance(8, 10)
        twin = parse_instance(dumps_instance(S))
        assert twin == S and twin is not S
        assert _solve_all(S) == _solve_all(twin)
        assert S.kernel is not twin.kernel


class TestArrangementCache:
    def test_holes_computed_once_per_instance(self):
        S = make_instance(9, 8)
        assert compute_holes(S) is compute_holes(S)
        twin = parse_instance(dumps_instance(S))
        assert compute_holes(twin) == compute_holes(S)
        assert compute_holes(twin) is not compute_holes(S)

    def test_poset_built_fresh_on_every_call(self):
        # Nothing keeps the poset: each call builds its own, and it dies
        # with its last reference.
        S = make_instance(10, 8)
        holes = compute_holes(S)
        poset = build_poset(S, holes)
        again = build_poset(S, holes)
        assert again is not poset and again == poset
        gone = weakref.ref(poset)
        del poset
        assert gone() is None

        subset = build_poset(S, holes[:3])
        assert len(subset) < len(again)


def test_threads_sharing_one_instance_agree():
    # The memo, the arrangement cache and the chain table's layers are
    # filled without a lock; a race may compute a value twice but must
    # never return a wrong one.  Each thread sweeps k in its own order,
    # and the exact solver's results, split sequences included, must be
    # those of fresh instances too.
    S = make_instance(12, 12)
    rng = random.Random(12)
    clusters = [frozenset(rng.sample(range(12), rng.randint(2, 12))) for _ in range(300)]
    expected = [diameter(make_instance(12, 12), C) for C in clusters]
    solvers = (sd_wellsep_dp, md_wellsep_dp)
    sweeps = [(solve, k) for solve in solvers for k in range(1, 7)]
    sweeps += [(sd_exact_goodseq, k) for k in range(2, 5)]
    reference = [solve(make_instance(12, 12), k) for solve, k in sweeps]
    results, errors = {}, []

    def work(w):
        try:
            order = list(range(len(clusters)))
            random.Random(w).shuffle(order)
            got = {i: diameter(S, clusters[i]) for i in order}
            order = list(range(len(sweeps)))
            random.Random(100 + w).shuffle(order)
            solved = {i: sweeps[i][0](S, sweeps[i][1]) for i in order}
            results[w] = (
                [got[i] for i in range(len(clusters))],
                [solved[i] for i in range(len(sweeps))],
            )
        except Exception as e:  # surfaced by the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert all(results[w] == (expected, reference) for w in range(6))
