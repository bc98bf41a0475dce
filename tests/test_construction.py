import hashlib
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from copclean.cleaning import run_script
from copclean.construction import (
    MAX_SAMPLES,
    _PAIRS,
    ConstructionSpec,
    _blocked_counts,
    _blocked_types,
    _sample_pairs,
    _walk_pairs,
    build_construction,
    check_blocking,
    check_middle_dominating,
    default_partition,
    scripted_seeing_strategy,
    spacing_ok,
)
from copclean.errors import BadParamError, UnsupportedSizeError
from copclean.families import from_spec
from copclean.graphs import Graph

ADVERSARIAL = ((0, 2), (1, 5), (3, 6), (4, 7))


def build(k=2, m=8, partition=None, allow_bad=False):
    return build_construction(
        ConstructionSpec(k=k, m=m, partition=partition), allow_bad_spacing=allow_bad
    )


def blocked_types_literal(cg, ev, se):
    """Clean-room recount of the interference set, straight off adjacency."""
    g = cg.graph
    i, a = cg.block_of(ev), cg.residue_of(ev)
    mask = (1 << cg.m) - 1
    se_adj = set(g.neighbors(se))
    out = []
    for q in cg.partition[i]:
        landings = [cg.vertex_id(j, (a + (1 << q)) & mask)
                    for j in range(cg.blocks) if j != i]
        if any(w == se or w in se_adj for w in landings):
            out.append(q)
    return out


def test_spec_defaults_and_validation():
    m, blocks, partition = ConstructionSpec(k=2).resolved()
    assert m == 16 and blocks == 4
    assert partition == default_partition(2, 16)
    # uneven class sizes are allowed as long as they cover every position
    ConstructionSpec(k=2, m=8, partition=((0, 3, 5), (7,), (1, 4), (2, 6))).resolved()
    with pytest.raises(BadParamError):
        ConstructionSpec(k=2, m=6).resolved()      # 2k must divide m
    with pytest.raises(BadParamError):
        ConstructionSpec(k=0).resolved()
    with pytest.raises(BadParamError):
        ConstructionSpec(k=2, m=8, partition=((0, 2), (1, 5), (3, 6))).resolved()
    with pytest.raises(BadParamError):
        ConstructionSpec(k=2, m=8, partition=((0, 0), (1, 5), (3, 6), (4, 7))).resolved()
    with pytest.raises(BadParamError):
        ConstructionSpec(k=2, m=8, partition=((0, 9), (1, 5), (3, 6), (4, 7))).resolved()


def test_spec_vertex_cap():
    # n = 2k * (2^m + 1); the cap is 2^20 and is checked before any allocation.
    # k=1, m=18 has 524,290 vertices but 5,242,881 edges, over the edge cap
    with pytest.raises(UnsupportedSizeError):
        ConstructionSpec(k=1, m=18).resolved()
    for spec in (ConstructionSpec(k=1, m=20), ConstructionSpec(k=2, m=20),
                 ConstructionSpec(k=3), ConstructionSpec(k=1, m=10**12)):
        with pytest.raises(UnsupportedSizeError):
            spec.resolved()
    with pytest.raises(UnsupportedSizeError) as e:
        build_construction(ConstructionSpec(k=3))          # m=36: 6 * (2^36 + 1)
    assert e.value.code == "UNSUPPORTED_SIZE"


def test_spec_edge_cap():
    # (m(2k-1) + 2k) * 2^m + C(2k, 2) endpoint pairs, refused before any
    # array is filled and named by k and m
    assert build(k=2, m=8).graph.edge_count() == (8 * 3 + 4) * 256 + 6
    assert ConstructionSpec(k=2, m=16).resolved()[0] == 16     # 3,407,878 edges
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedSizeError, match="^k=1, m=18 gives 5242881 edges"):
            build(k=1, m=18, allow_bad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    with pytest.raises(UnsupportedSizeError, match="^k=4, m=16 gives 7864348 edges"):
        ConstructionSpec(k=4, m=16).resolved()                 # 524,296 vertices


def test_default_partition_spacing():
    for k in (2, 3, 4):
        m = 4 * k * k
        part = default_partition(k, m)
        assert spacing_ok(part)
        assert sorted(q for cls in part for q in cls) == list(range(m))


def test_shape_and_degrees():
    cg = build(k=2, m=8)
    g = cg.graph
    assert g.n == 4 * 256 + 4 == 1028
    assert cg.blocks == 4 and cg.block_size == 256
    # every outside vertex: m(2k-1)/k forward+backward partners plus its hub
    out_deg = 8 * 3 // 2 + 1
    assert all(g.degree(cg.vertex_id(b, r)) == out_deg
               for b in range(4) for r in (0, 1, 100, 255))
    assert all(g.degree(cg.hub_id(b)) == 256 + 3 for b in range(4))


# SHA-256 of indptr's bytes followed by nbrs' bytes (int64 and int32,
# little-endian)
CSR_SHA256 = {
    "construction:k=2:m=12": "f7954bab935e04a44ac98c69805b921724d078525cbab5cb46e3b4635cbdbf5f",
    "complete:64": "bf742cafd2fa6f0c370c0b01c12a41a8cb2d3a572fe8d5d39b245e713d3e43a9",
    "grid:4:5": "31db7aee4a37605d7064a972a0f8f73b112f84412c18f9445e9dc9f9d8bdc9d1",
}


def test_csr_bytes_pinned():
    for g in (build(m=12).graph, from_spec("complete:64"), from_spec("grid:4:5")):
        assert g._indptr.dtype == np.int64 and g._nbrs.dtype == np.int32
        assert not g._indptr.flags.writeable and not g._nbrs.flags.writeable
        digest = hashlib.sha256(g._indptr.tobytes() + g._nbrs.tobytes()).hexdigest()
        assert digest == CSR_SHA256[g.name], g.name


def test_build_matches_edge_list_referee():
    # the direct CSR build against the edge list sorted by from_edge_arrays;
    # the unequal classes give blocks rows of different widths, which pad
    # the blocking kernel's closed rows
    unequal = ((0,), (1, 3), (2, 5, 7), (4, 6))
    for k, m, partition in ((1, 2, None), (1, 4, None), (2, 8, None), (2, 8, unequal),
                            (3, 6, None), (3, 12, None)):
        spec = ConstructionSpec(k=k, m=m, partition=partition)
        g = build_construction(spec, allow_bad_spacing=True).graph
        ref = oracles.construction_from_edges(spec)
        assert g == ref and g.name == ref.name, (k, m, partition)
        assert g._indptr.dtype == np.int64 and g._nbrs.dtype == np.int32
        assert not g._indptr.flags.writeable and not g._nbrs.flags.writeable
    cg = build(m=8, partition=unequal, allow_bad=True)
    ref = oracles.construction_from_edges(ConstructionSpec(k=2, m=8, partition=unequal))
    got = check_blocking(cg, mode="exhaustive")
    want = check_blocking(replace(cg, graph=ref), mode="exhaustive")
    assert got.to_dict() == want.to_dict() and not got.passed


def test_build_memory_bounded():
    # the build writes the CSR arrays in place and holds nothing of their
    # size besides: about 1.1 times the CSR bytes in all
    tracemalloc.start()
    try:
        g = build(m=12).graph
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = g._indptr.nbytes + g._nbrs.nbytes
    assert peak <= 1.5 * csr, peak / csr


def test_vertex_ids_round_trip():
    cg = build(k=2, m=8)
    for b in range(4):
        for r in (0, 17, 255):
            v = cg.vertex_id(b, r)
            assert cg.block_of(v) == b and cg.residue_of(v) == r
        h = cg.hub_id(b)
        assert cg.block_of(h) is None


def test_middle_dominates():
    assert check_middle_dominating(build(k=2, m=8))


def test_middle_domination_fails_on_a_moved_spoke():
    # hub 0 trades its spoke to (0, 5) for one to (1, 5): every degree and
    # the hub clique stay as built, but block 0 is no longer covered
    cg = build(k=2, m=8)
    h, lost, gained = cg.hub_id(0), cg.vertex_id(0, 5), cg.vertex_id(1, 5)
    edges = [(h, gained) if e == (lost, h) else e for e in cg.graph.edges()]
    assert len(edges) == cg.graph.edge_count() and (lost, h) not in edges
    moved = replace(cg, graph=Graph.from_edges(cg.graph.n, edges))
    assert moved.graph.degree(h) == cg.graph.degree(h)
    assert not check_middle_dominating(moved)


def test_spacing_enforced_unless_escaped():
    with pytest.raises(BadParamError):
        build(k=2, m=8, partition=ADVERSARIAL)
    cg = build(k=2, m=8, partition=ADVERSARIAL, allow_bad=True)
    assert not spacing_ok(cg.partition)


def test_blocking_exhaustive_default_partition():
    rep = check_blocking(build(k=2, m=8), mode="exhaustive")
    assert rep.passed and rep.max_blocked == 1
    assert rep.checked_pairs == 1024 * 1023
    assert rep.violations == []
    d = rep.to_dict()
    assert d["mode"] == "exhaustive" and d["passed"] is True


def test_blocking_matches_literal_recount_small():
    # full literal pass over every ordered pair, no translation trick; the
    # kernel's per-pair counts must agree too.  The sizes fall on both sides
    # of the 64-vertex limit of ``Graph.bit_rows``.  No spaced 2-class
    # partition of 4 positions exists, so k=1, m=4 is built with bad spacing.
    for k, m, allow_bad, n in ((1, 2, False, 10), (1, 4, True, 34), (2, 4, False, 68)):
        cg = build(k=k, m=m, allow_bad=allow_bad)
        assert cg.graph.n == n
        outside = cg.blocks << cg.m
        pairs = [(ev, se) for ev in range(outside) for se in range(outside) if ev != se]
        literal = [len(blocked_types_literal(cg, ev, se)) for ev, se in pairs]
        ev, se = np.array(pairs, dtype=np.int64).T
        assert _blocked_counts(cg, ev, se).tolist() == literal
        rep = check_blocking(cg, mode="exhaustive")
        assert rep.max_blocked == max(literal)
        assert rep.passed == (max(literal) <= 1)


def test_blocking_translation_invariance():
    # residue shifts are automorphisms; the exhaustive walk relies on this
    cg = build(k=2, m=8)
    rng = random.Random(3)
    mask = 255
    for _ in range(300):
        eb, er = rng.randrange(4), rng.randrange(256)
        sb, sr = rng.randrange(4), rng.randrange(256)
        if (eb, er) == (sb, sr):
            continue
        t = rng.randrange(256)
        base = blocked_types_literal(cg, cg.vertex_id(eb, er), cg.vertex_id(sb, sr))
        shifted = blocked_types_literal(
            cg, cg.vertex_id(eb, (er + t) & mask), cg.vertex_id(sb, (sr + t) & mask)
        )
        assert base == shifted
        assert len(base) <= 1


def test_adversarial_partition_violates():
    cg = build(k=2, m=8, partition=ADVERSARIAL, allow_bad=True)
    rep = check_blocking(cg, mode="exhaustive")
    assert not rep.passed
    assert rep.max_blocked == 2
    assert any(v["delta"] == 3 and v["types"] == [0, 2] for v in rep.violations)
    # the same pair re-judged straight off adjacency
    ev = cg.vertex_id(0, 0)
    se = cg.vertex_id(0, 3)
    assert blocked_types_literal(cg, ev, se) == [0, 2]


def test_blocking_sampled_deterministic():
    cg = build(k=2, m=8)
    a = check_blocking(cg, mode="sampled", samples=2000, seed=9)
    b = check_blocking(cg, mode="sampled", samples=2000, seed=9)
    assert a.to_dict() == b.to_dict()
    assert a.passed and a.checked_pairs == 2000
    with pytest.raises(BadParamError):
        check_blocking(cg, mode="quick")


def drawn_pairs(outside, samples, seed):
    """Every pair ``_sample_pairs`` draws, its chunks joined into one
    evaders array and one searchers array."""
    evaders, searchers = zip(*_sample_pairs(outside, samples, seed))
    return np.concatenate(evaders), np.concatenate(searchers)


def sampled_recount(cg, samples, seed, max_violations=5):
    """The sampled check done pair by pair with ``_blocked_types``, on the
    pairs ``_sample_pairs`` draws."""
    outside = cg.blocks << cg.m
    mask = (1 << cg.m) - 1
    worst, violations = 0, []
    for ev, se in zip(*(a.tolist() for a in drawn_pairs(outside, samples, seed))):
        types = _blocked_types(cg, ev, se, set(cg.graph.neighbors(se)))
        worst = max(worst, len(types))
        if len(types) > 1 and len(violations) < max_violations:
            violations.append({
                "evader": [cg.block_of(ev), cg.residue_of(ev)],
                "searcher": [cg.block_of(se), cg.residue_of(se)],
                "delta": (cg.residue_of(se) - cg.residue_of(ev)) & mask,
                "types": types,
            })
    return {"mode": "sampled", "checked_pairs": samples, "max_blocked": worst,
            "passed": worst <= 1, "violations": violations,
            "samples": samples, "seed": seed}


def test_blocking_sampled_matches_pairwise_recount():
    # the second partition has classes of unequal size
    for partition in (ADVERSARIAL, ((0, 3, 5), (7,), (1, 4), (2, 6))):
        cg = build(k=2, m=8, partition=partition, allow_bad=True)
        rep = check_blocking(cg, mode="sampled", samples=20_000, seed=4)
        assert rep.to_dict() == sampled_recount(cg, 20_000, 4)
        assert len(rep.violations) == 5 and not rep.passed


# an unspaced m=12 partition with classes of 4, 2, 3 and 3 positions, so
# the kernel's rows mix types of unequal classes
UNEQUAL_M12 = ((0, 3, 5, 9), (7, 11), (1, 4, 10), (2, 6, 8))

# SHA-256 of the int32 counts over _sample_pairs(outside, 200_000, 7)
BLOCKED_COUNTS_SHA256 = {
    None: "aa29552712423d340e10889e677781a042aa7b71e11cb70d304b10f7616a345f",
    UNEQUAL_M12: "3da26502314b95ea8d729c15717315641367bc05f09e36f5b399f96568337d43",
}


def test_blocked_counts_pinned():
    for partition, expected in BLOCKED_COUNTS_SHA256.items():
        cg = build(m=12, partition=partition, allow_bad=True)
        ev, se = drawn_pairs(cg.blocks << cg.m, 200_000, 7)
        counts = _blocked_counts(cg, ev, se)
        assert counts.dtype == np.int32
        assert hashlib.sha256(counts.tobytes()).hexdigest() == expected, partition


def test_blocked_counts_match_reference_unequal_classes():
    cg = build(m=12, partition=UNEQUAL_M12, allow_bad=True)
    ev, se = drawn_pairs(cg.blocks << cg.m, 3000, 0)
    counts = _blocked_counts(cg, ev, se).tolist()
    for n, e, s in zip(counts, ev.tolist(), se.tolist()):
        assert n == len(_blocked_types(cg, e, s, set(cg.graph.neighbors(s)))), (e, s)


def test_sampled_pairs_are_distinct_and_uniform():
    # each pair is uniform over the ordered pairs of distinct outside
    # vertices, so each vertex is the evader, and the searcher, with
    # chance 1/outside
    cg = build(k=2, m=8)
    outside = cg.blocks << cg.m
    samples = 200_000
    ev, se = drawn_pairs(outside, samples, 12)
    assert len(ev) == len(se) == samples
    assert not (ev == se).any()
    assert 0 <= min(ev.min(), se.min()) and max(ev.max(), se.max()) < outside
    p = 1 / outside
    sigma = (samples * p * (1 - p)) ** 0.5
    for side in (ev, se):
        counts = np.bincount(side, minlength=outside)
        assert np.abs(counts - samples * p).max() <= 5 * sigma


def test_sampled_pairs_are_the_int64_stream():
    # the pairs are drawn and formed in int32; a second generator with the
    # same seed, drawing in int64, must give the same pairs by the formula
    for seed in (0, 7, 12):
        for outside in (1024, 16384, 262144):
            ev, se = drawn_pairs(outside, 20_000, seed)
            assert ev.dtype == se.dtype == np.int32
            rng = np.random.default_rng(seed)
            ev64 = rng.integers(outside, size=20_000, dtype=np.int64)
            off = rng.integers(outside - 1, size=20_000, dtype=np.int64)
            assert np.array_equal(ev, ev64)
            assert np.array_equal(se, (ev64 + 1 + off) % outside)


def test_sampled_pairs_stream_across_chunks():
    # the chunks join up to one int64 draw of every evader, then every
    # offset, on either side of each chunk boundary; a numpy whose chunked
    # draws do not join up to the one-shot stream fails here
    for outside in (1024, 6 << 12, 262144):
        for samples in (1, _PAIRS - 1, _PAIRS, 3 * _PAIRS + 7):
            chunks = list(_sample_pairs(outside, samples, 5))
            assert all(ev.dtype == se.dtype == np.int32 and len(ev) == len(se) <= _PAIRS
                       for ev, se in chunks)
            ev, se = (np.concatenate(side) for side in zip(*chunks))
            rng = np.random.default_rng(5)
            ev64 = rng.integers(outside, size=samples, dtype=np.int64)
            off = rng.integers(outside - 1, size=samples, dtype=np.int64)
            assert np.array_equal(ev, ev64), (outside, samples)
            assert np.array_equal(se, (ev64 + 1 + off) % outside), (outside, samples)


def test_walk_pairs_chunks(monkeypatch):
    # the exhaustive walk, chunked: searcher, then evader block, every
    # pair but a vertex with itself, at most _PAIRS a chunk
    for size in (_PAIRS, 64, 7):
        monkeypatch.setattr("copclean.construction._PAIRS", size)
        for blocks, m in ((2, 2), (4, 8), (6, 12)):
            chunks = list(_walk_pairs(blocks, m))
            assert all(len(ev) == len(se) <= size for ev, se in chunks)
            ev, se = (np.concatenate(side) for side in zip(*chunks))
            want = [(i << m, s) for s in range(blocks << m) for i in range(blocks) if i << m != s]
            assert list(zip(ev.tolist(), se.tolist())) == want


def test_blocking_sampled_memory_bounded():
    # the pairs stream through the kernel in chunks, so ten times the
    # samples must not raise the traced peak by 1 MiB
    cg = build(m=12)
    peaks = []
    for samples in (100_000, 1_000_000):
        tracemalloc.start()
        try:
            assert check_blocking(cg, mode="sampled", samples=samples, seed=3).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


def test_blocking_reports_do_not_depend_on_chunk_size(monkeypatch):
    # with 7 pairs a chunk, the exhaustive walk takes one searcher a chunk,
    # and the maxima and violations fold across hundreds of chunks: the
    # walk meets 4 violating pairs, the 5000 samples 8, of which 5 are kept
    cg = build(k=2, m=8, partition=((0, 2), (1, 3), (4, 6), (5, 7)), allow_bad=True)
    checks = (dict(mode="exhaustive"), dict(mode="sampled", samples=5000, seed=1))
    want = [check_blocking(cg, **kw).to_dict() for kw in checks]
    assert [len(rep["violations"]) for rep in want] == [4, 5]
    assert want[1] == sampled_recount(cg, 5000, 1)
    monkeypatch.setattr("copclean.construction._PAIRS", 7)
    assert [check_blocking(cg, **kw).to_dict() for kw in checks] == want


def test_sampled_check_rejects_negative_seed():
    with pytest.raises(BadParamError):
        check_blocking(build(k=2, m=8), mode="sampled", samples=10, seed=-1)


def test_blocking_sampled_needs_a_sample():
    cg = build(k=2, m=8)
    for samples in (0, -5):
        with pytest.raises(BadParamError):
            check_blocking(cg, mode="sampled", samples=samples)


def test_blocking_sampled_count_capped(monkeypatch):
    # a count over the cap is refused before any pair is drawn
    cg = build(k=2, m=8)

    def no_draw(*args):
        raise AssertionError("drew pairs before checking the count")

    monkeypatch.setattr("copclean.construction._sample_pairs", no_draw)
    with pytest.raises(UnsupportedSizeError):
        check_blocking(cg, mode="sampled", samples=MAX_SAMPLES + 1)


def test_short_script_trace_pinned():
    # the reference engine's full trace of one searcher on the m=12 graph
    cg = build(m=12)
    lines = run_script(cg.graph, scripted_seeing_strategy(cg, cops=1)).to_json_lines()
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "4e63236481a90202f9bca4966c04e505a89a2faa40d33eb2ba582953d516fc17")


def test_scripted_strategy_cleans_on_first_turn():
    cg = build(k=2, m=8)
    script = scripted_seeing_strategy(cg)
    assert script.l == 1
    trace = run_script(cg.graph, script)
    assert trace.fully_cleaned_at == 1
    # one searcher short leaves gas everywhere it cannot reach
    short = run_script(cg.graph, scripted_seeing_strategy(cg, cops=1))
    assert short.fully_cleaned_at is None
    assert short.min_gas > 0
