"""Integer-infeasibility certificates for three-dimensional size targets."""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefree import ResourceBudgetError, certify
from linefree.certify import (
    INFEASIBLE,
    UNKNOWN,
    ExclusionInstance,
    NullSpaceError,
    _child_window,
    _count_enumeration,
    _enumerate_candidates,
    _enumeration_shape,
    _product_dtype,
    class_distributions,
    make_instance,
    null_weights,
    pair_coefficients,
    prove_infeasible,
    rich_pencil_multisets,
)


def sorted_multisets(inst: ExclusionInstance) -> set[tuple[int, ...]]:
    return {tuple(sorted(m)) for m in rich_pencil_multisets(inst)}


# --- the 74-point target in dimension three over F_5 ------------------------


def test_target_74_is_infeasible_with_expected_intermediates():
    cert = prove_infeasible(make_instance(5, 74))
    assert cert.verdict == INFEASIBLE
    assert cert.instance.allowed_sizes == (10, 11, 14, 15, 16)
    assert [sorted(d) for d in cert.distributions] == [
        [10, 16, 16, 16, 16],
        [11, 15, 16, 16, 16],
        [14, 14, 14, 16, 16],
        [14, 14, 15, 15, 16],
        [14, 15, 15, 15, 15],
    ]
    assert cert.coefficients == (525, 520, 513, 512, 511)
    assert cert.instance.pair_rhs == 16206
    assert cert.weights == {16: 1, 15: -2, 14: -5}
    assert cert.candidate_count == 11
    assert cert.refuted_count == 11
    assert cert.witness is None


def test_target_74_paper_faithful_mode_differs_only_in_caps():
    derived = prove_infeasible(make_instance(5, 74))
    faithful = prove_infeasible(make_instance(5, 74), paper_faithful=True)
    assert derived.verdict == faithful.verdict == INFEASIBLE
    assert derived.distributions == faithful.distributions
    assert derived.weights == faithful.weights
    assert derived.rich_caps[14] == 13  # combination bound beats the stated cap
    assert faithful.rich_caps[14] == 14
    assert derived.rich_caps[15] == faithful.rich_caps[15] == 15
    assert faithful.candidate_count == derived.candidate_count == 11


def test_pair_equation_matches_hand_count():
    # Two distinct points span one line, and a line in dimension three
    # lies in exactly p + 1 planes, so summing C(plane size, 2) over all
    # planes of all parallel classes counts every point pair p + 1 times.
    inst = make_instance(5, 74)
    assert inst.pair_rhs == 74 * 73 // 2 * 6


CLASS_TARGETS = [(5, 60), (5, 70), (5, 73), (5, 74), (5, 76), (5, 80),
                 (7, 236), (7, 240), (7, 242), (7, 243), (7, 245)]


def test_class_distribution_enumeration_is_exact():
    for p, target in CLASS_TARGETS:
        inst = make_instance(p, target)
        dists = class_distributions(inst)
        # brute force: nondecreasing p-tuples of allowed sizes summing to
        # the target, in ascending lexicographic order
        brute = tuple(
            t
            for t in itertools.combinations_with_replacement(inst.allowed_sizes, p)
            if sum(t) == target
        )
        assert dists == brute, (p, target)
        assert pair_coefficients(dists) == tuple(
            sum(m * (m - 1) // 2 for m in d) for d in dists
        )


def test_rich_pencil_enumeration_is_exact():
    for p, target in CLASS_TARGETS:
        inst = make_instance(p, target)
        # rich_sizes is descending, so these are nonincreasing (p+1)-tuples
        # in descending lexicographic order
        brute = tuple(
            t
            for t in itertools.combinations_with_replacement(inst.rich_sizes, p + 1)
            if sum(t) == inst.rich_pencil_sum
        )
        assert rich_pencil_multisets(inst) == brute, (p, target)


# --- the 243-point target in dimension three over F_7 ------------------------


def test_target_243_is_infeasible_with_derived_intermediates():
    inst = make_instance(7, 243)
    cert = prove_infeasible(inst)
    assert cert.verdict == INFEASIBLE
    assert inst.allowed_sizes == (27, 28, 29, 33, 34, 35, 36)
    assert sorted_multisets(inst) == {
        (33, 36, 36, 36, 36, 36, 36, 36),
        (34, 35, 36, 36, 36, 36, 36, 36),
        (35, 35, 35, 36, 36, 36, 36, 36),
    }
    assert cert.weights == {36: 3, 35: -5, 34: -13, 33: -21}
    assert cert.candidate_count == 29543
    assert cert.refuted_count == 29543
    assert cert.witness is None


# --- soundness guards ---------------------------------------------------------


def test_achievable_target_is_never_refuted():
    # 70 points are attained by a bundled set, so UNKNOWN is the only
    # acceptable verdict.
    cert = prove_infeasible(make_instance(5, 70))
    assert cert.verdict == UNKNOWN


def test_target_73_survives_on_a_candidate():
    cert = prove_infeasible(make_instance(5, 73))
    assert cert.verdict == UNKNOWN
    assert cert.witness is not None
    assert len(cert.witness) == len(cert.distributions)
    assert sum(cert.witness) == cert.instance.num_classes


def test_monotone_family_of_refutations():
    assert prove_infeasible(make_instance(5, 75)).verdict == INFEASIBLE
    assert prove_infeasible(make_instance(5, 76)).verdict == INFEASIBLE
    assert prove_infeasible(make_instance(7, 244)).verdict == INFEASIBLE


def test_pigeonhole_shortcut():
    cert = prove_infeasible(make_instance(5, 81))
    assert cert.verdict == INFEASIBLE
    assert cert.reason.startswith("pigeonhole")
    assert cert.candidate_count == 0


def test_unknown_prime_requires_explicit_caps():
    with pytest.raises(ValueError):
        make_instance(11, 900)
    inst = make_instance(11, 1300, plane_cap=100, sub_cap=90)
    assert inst.plane_cap == 100


# --- replay, digests, and serialization ---------------------------------------


def test_replay_is_bit_exact():
    cert = prove_infeasible(make_instance(5, 74))
    assert cert.replay()


def test_p7_ladder_at_the_default_budget():
    # the 242 step's tree has 6,530,275,699,939 nodes, far past 20M
    cert = prove_infeasible(make_instance(7, 242))
    assert cert.verdict == UNKNOWN
    assert cert.reason == (
        "enumeration budget exhausted (max_candidates=500000, max_nodes=20000000)"
    )
    assert cert.candidate_count == 0
    assert cert.digest == "c610dc10c3304035fed8d6cb7a050a24ce935579cc978ec43b86b1ff9c5719e3"


def test_certificate_serializes_to_json():
    cert = prove_infeasible(make_instance(5, 74))
    d = json.loads(cert.to_json())
    assert d["verdict"] == INFEASIBLE
    assert d["digest"] == cert.digest
    assert d["candidates"] is not None  # small log embeds the full table
    text = cert.render_text()
    assert "INFEASIBLE" in text and cert.digest in text


def test_null_weights_annihilate_pencil_multisets():
    # The weight vector w must satisfy sum(w[s] * count_s(M)) equal for
    # all rich pencil multisets M (the defining null-space property).
    for p, t in [(5, 74), (7, 243)]:
        inst = make_instance(p, t)
        w = null_weights(inst)
        vals = {
            sum(w.get(s, 0) * m.count(s) for s in set(m))
            for m in rich_pencil_multisets(inst)
        }
        assert len(vals) == 1


def test_null_space_of_the_wrong_dimension_is_unknown(monkeypatch):
    # No default-table target reaches this path, so keep only the first
    # rich pencil of 74: three rich sizes and one equation leave a
    # two-dimensional null space.
    from linefree import certify

    inst = make_instance(5, 74)
    pencil = rich_pencil_multisets(inst)[0]
    assert pencil == (16, 16, 16, 16, 16, 14)
    monkeypatch.setattr(certify, "rich_pencil_multisets", lambda inst: (pencil,))
    with pytest.raises(NullSpaceError) as err:
        null_weights(inst)
    assert err.value.dimension == 2 and len(err.value.basis) == 2
    for vec in err.value.basis:
        assert sum(w * pencil.count(s) for w, s in zip(vec, inst.rich_sizes)) == 0
    cert = prove_infeasible(inst)
    assert cert.verdict == UNKNOWN
    assert cert.reason == "rich-pencil null space has dimension 2, need 1"
    assert cert.weights is None and cert.candidates.shape == (0, 5)
    assert cert.replay()
    assert _sha(cert) == "3799041ee10ffb9e20997b53789c0cd8373964cae407e5552a2dceba0afbcf6a"


# --- every certificate of a target sweep, byte for byte ------------------------


def _sha(cert) -> str:
    return hashlib.sha256((cert.to_json() + cert.render_text()).encode()).hexdigest()


SWEEP_TARGETS = {5: range(60, 82), 7: range(236, 252)}
# sha256 of to_json() + render_text(), first 16 hex digits, per target
SWEEP_PINS = {
    (5, False): """f3ef3ed2ac0b0d42 4dcd8bdadb7758cd c00bad8f48478003 a7791bf5b8cdb235
        293d34d78a4c97d3 5af2156182832005 dd9a1681e439d62d 6be09f291ae64b26
        936f84b100757ac7 df2dbdc7d7d7a9f7 09f8bc123d42af70 700bc05c0320f989
        f7951f9c755f0156 05e3d8549ba8f8e5 67884b468d464285 4bdf2837fcf92b00
        b3b0bb4d43c7e4cb 440c0df3ca2908e8 ad897f84e7f7c1a1 a499dbb8aeb98bd0
        7b205a1d4a1725c5 5e00137142f00b04""",
    (5, True): """a63fbb4f16c719f6 b9b28d1b816673ae 556ad4fda6fbb292 92258eaefefc6290
        d22b800305488ce4 8470cb1a464892f3 699b83095c02c11e bd513d589c726220
        cd0a2be248f050ac 27ca14538f301cc6 84d8f73afdae5cff 1e6af584973d76df
        045fa7fcb8da62c2 e088e265d3717d20 a68cfb0c83a76f3e 33f3a0b907c55486
        3b75d6af77d8a10a d855cfc96afaf55a 30f074d4be09ae33 2febaebeddf958c1
        65957a3fcc8c05b8 a5f4f58fcb3eb626""",
    (7, False): """fe2dc06e639a7cb1 09c46c6c60ce5fb1 97d8503a79c98f11 962c7ae5dcda8d70
        f1bdbe6ed772766a 31fa3f2433a6947f a5ceedbdb0cdf573 a9acb0c7b2e7d6b2
        979282f16e4eb3c1 f020fc8c53510f56 60c61ee6b5caa6a6 f2ebd939a13a0b9b
        d7d43d4694b507d6 07dc83d7d4431844 25b80de5a9563ea5 ffcab439c1fd6ca8""",
    (7, True): """ca7093a73d649e12 440c76aa36172948 0ea140e2a7fdcf82 997cb929b96ef93a
        adc04714b32e91fb d8415983e69602f6 edb61eee945b7e22 331be8c6b77dd1e9
        42ba4d2b5f993c26 f134dd2b73f89f61 b0012777079e77bf 0bdaa80e04ace86f
        db7284240e758ae6 46431cd887452613 1c1dcccccefdd29e 68872fa43f8ea9b3""",
}
SWEEP_REASONS = {
    "pigeonhole",
    "no multiset of allowed plane sizes attains the target",
    "no assignment of distributions to classes meets the pair count",
    "every candidate assignment is refuted by the rich-line inequality",
    "a candidate assignment survives all refutations",
    "enumeration budget exhausted (max_candidates=500000, max_nodes=1000000)",
}


def test_certificate_sweep_is_pinned():
    reasons = set()
    for (p, faithful), pins in SWEEP_PINS.items():
        got = []
        for target in SWEEP_TARGETS[p]:
            cert = prove_infeasible(
                make_instance(p, target), paper_faithful=faithful, max_nodes=1_000_000
            )
            reasons.add(cert.reason.split(":")[0])
            got.append(_sha(cert)[:16])
        assert got == pins.split(), (p, faithful)
    assert reasons == SWEEP_REASONS


# --- the candidate enumeration against the v1 depth-first search --------------


def _reference_enumeration(
    coeffs: tuple[int, ...],
    num_classes: int,
    rhs: int,
    max_candidates: int,
    max_nodes: int,
) -> tuple[np.ndarray, bool, int]:
    """The v1 recursive search, which the digests pin: (rows, truncated, nodes).

    Every call of rec, leaves included, is a node.  The top level tries
    every value of the last coordinate unfiltered; below it, a value is
    tried only if the remaining pair count stays reachable with the
    remaining coefficients.
    """
    nd = len(coeffs)
    if nd == 0:
        return np.zeros((1 if (num_classes == 0 and rhs == 0) else 0, 0), dtype=np.int32), False, 0
    prefix_min = [0] * nd
    prefix_max = [0] * nd
    prefix_min[0] = prefix_max[0] = coeffs[0]
    for i in range(1, nd):
        prefix_min[i] = min(prefix_min[i - 1], coeffs[i])
        prefix_max[i] = max(prefix_max[i - 1], coeffs[i])

    rows: list[list[int]] = []
    cur = [0] * nd
    truncated = False
    nodes = 0

    def rec(i: int, classes_left: int, rhs_left: int) -> None:
        nonlocal truncated, nodes
        if truncated:
            return
        nodes += 1
        if nodes > max_nodes:
            truncated = True
            return
        if i == 0:
            if coeffs[0] * classes_left == rhs_left:
                if len(rows) >= max_candidates:
                    truncated = True
                    return
                cur[0] = classes_left
                rows.append(cur[:])
                cur[0] = 0
            return
        lo_rest, hi_rest = prefix_min[i - 1], prefix_max[i - 1]
        for v in range(classes_left + 1):
            rl = rhs_left - coeffs[i] * v
            cl = classes_left - v
            if rl < cl * lo_rest or rl > cl * hi_rest:
                continue
            cur[i] = v
            rec(i - 1, cl, rl)
            cur[i] = 0
            if truncated:
                return

    if nd == 1:
        if coeffs[0] * num_classes == rhs:
            rows.append([num_classes])
    else:
        for top in range(num_classes + 1):
            cur[nd - 1] = top
            rec(nd - 2, num_classes - top, rhs - coeffs[nd - 1] * top)
            cur[nd - 1] = 0
            if truncated:
                break

    arr = np.array(rows, dtype=np.int32).reshape(len(rows), nd)
    return arr, truncated, nodes


def _pair_system(p: int, target: int) -> tuple[tuple[int, ...], int, int]:
    inst = make_instance(p, target)
    return pair_coefficients(class_distributions(inst)), inst.num_classes, inst.pair_rhs


@st.composite
def pair_systems(draw):
    nd = draw(st.integers(1, 8))
    classes = draw(st.integers(0, 12))
    top = draw(st.sampled_from([4, 30]))  # small ranges force ties
    coeffs = tuple(draw(st.lists(st.integers(0, top), min_size=nd, max_size=nd)))
    counts = [0] * nd
    for j in draw(st.lists(st.integers(0, nd - 1), min_size=classes, max_size=classes)):
        counts[j] += 1
    rhs = sum(c * n for c, n in zip(coeffs, counts)) + draw(st.integers(-2, 2))
    return coeffs, classes, rhs


@settings(max_examples=150, deadline=None)
@given(pair_systems())
def test_enumeration_matches_the_v1_search_at_every_budget_boundary(system):
    coeffs, classes, rhs = system
    rows, _, nodes = _reference_enumeration(coeffs, classes, rhs, 10**9, 10**9)
    found = rows.shape[0]
    if len(coeffs) >= 2:
        assert _count_enumeration(coeffs, classes, rhs, 10**9) == (nodes, found)
    budgets = {
        (mc, mn)
        for mc in (found, found - 1, 10**9)
        for mn in (nodes, nodes - 1, 10**9, 2**64)  # 2**64 counts in Python integers
    }
    for mc, mn in budgets:
        want, want_truncated, _ = _reference_enumeration(coeffs, classes, rhs, mc, mn)
        got, truncated = _enumerate_candidates(coeffs, classes, rhs, mc, mn)
        assert truncated == want_truncated, (mc, mn)
        assert got.dtype == np.int32
        if not truncated:
            assert np.array_equal(got, want) and got.shape == want.shape, (mc, mn)


def test_enumeration_special_cases():
    for classes, rhs in [(0, 0), (0, 1), (3, 0)]:
        got, truncated = _enumerate_candidates((), classes, rhs, 10, 10)
        assert got.shape == ((1 if (classes, rhs) == (0, 0) else 0), 0) and not truncated
    # one coefficient: no node is counted and no budget applies
    got, truncated = _enumerate_candidates((7,), 3, 21, 0, 0)
    assert got.tolist() == [[3]] and not truncated
    got, truncated = _enumerate_candidates((7,), 3, 20, 0, 0)
    assert got.shape == (0, 1) and not truncated
    # a shift far beyond int32 on a middle level admits only v = 0 there
    for coeffs, classes, rhs in [((0, 2**40, 1, 0), 3, 1), ((1, 2**33, 0, 2, 0), 4, 3)]:
        want, _, _ = _reference_enumeration(coeffs, classes, rhs, 10**9, 10**9)
        got, truncated = _enumerate_candidates(coeffs, classes, rhs, 10**9, 10**9)
        assert want.shape[0] and np.array_equal(got, want) and not truncated


@st.composite
def child_windows(draw):
    """(cl, s, d, lo, hi) with d below lo, at lo, between, at hi or above hi,
    and s on both sides of lo * cl and of hi * cl."""
    lo = draw(st.integers(0, 9))
    hi = lo + draw(st.integers(0, 9))
    where = draw(st.sampled_from(["below", "lo", "between", "hi", "above"]))
    if where == "below":
        lo, hi = lo + 1, hi + 1
        d = draw(st.integers(0, lo - 1))
    elif where == "between":
        d = draw(st.integers(lo, hi))
    elif where == "above":
        d = draw(st.integers(hi + 1, hi + 9))
    else:
        d = lo if where == "lo" else hi
    cl = draw(st.integers(0, 12))
    s = draw(st.integers(max(lo * cl - 12, 0), hi * cl + 12))
    return cl, s, d, lo, hi


@settings(max_examples=400, deadline=None)
@given(child_windows())
def test_child_window_is_exactly_the_values_whose_child_passes(case):
    cl, s, d, lo, hi = case
    want = [v for v in range(cl + 1) if lo * (cl - v) <= s - v * d <= hi * (cl - v)]
    vlo, vhi = _child_window(np.array([cl], np.int32), np.array([s], np.int32), d, lo, hi)
    assert list(range(int(vlo[0]), int(vhi[0]) + 1)) == want


def test_expansion_probes_count_in_the_byte_budget(monkeypatch):
    coeffs, classes, rhs = _pair_system(5, 73)
    nd, found = len(coeffs), 76_817
    held = _enumeration_shape(coeffs, classes, rhs, nd + 16, found * nd * 12)[-1]
    # the widest level of 73 probes 207,098 (state, value) pairs
    fits = held + 207_098 * certify._PROBE_BYTES
    monkeypatch.setattr(certify, "ENUMERATION_BYTE_BUDGET", fits)
    assert _enumerate_candidates(coeffs, classes, rhs, found)[0].shape == (found, nd)
    monkeypatch.setattr(certify, "ENUMERATION_BYTE_BUDGET", fits - 1)
    with pytest.raises(ResourceBudgetError, match="candidate expansion at level"):
        _enumerate_candidates(coeffs, classes, rhs, found)


@pytest.mark.parametrize(
    "p, target, nodes, found",
    [(5, 74, 118, 11), (5, 73, 648_833, 76_817), (7, 243, 366_001, 29_543)],
)
def test_v1_node_counts_are_pinned(p, target, nodes, found):
    coeffs, classes, rhs = _pair_system(p, target)
    assert _count_enumeration(coeffs, classes, rhs, 10**9) == (nodes, found)
    rows, truncated = _enumerate_candidates(coeffs, classes, rhs, found, nodes)
    assert not truncated and rows.shape == (found, len(coeffs))
    assert _enumerate_candidates(coeffs, classes, rhs, found, nodes - 1)[1]
    assert _enumerate_candidates(coeffs, classes, rhs, found - 1, nodes)[1]


def test_v1_search_on_74_agrees_with_its_reference():
    coeffs, classes, rhs = _pair_system(5, 74)
    want, truncated, nodes = _reference_enumeration(coeffs, classes, rhs, 500_000, 20_000_000)
    assert nodes == 118 and not truncated
    got, _ = _enumerate_candidates(coeffs, classes, rhs, 500_000)
    assert np.array_equal(got, want)


def test_242_enumeration_is_beyond_any_budget():
    coeffs, classes, rhs = _pair_system(7, 242)
    rows, truncated = _enumerate_candidates(coeffs, classes, rhs, 500_000, 1_000_000)
    assert truncated and rows.shape == (0, 26)
    assert _count_enumeration(coeffs, classes, rhs, 10**13) == (
        6_530_275_699_939,
        501_148_277_385,
    )


def test_oversized_enumeration_raises():
    with pytest.raises(ResourceBudgetError):
        _enumerate_candidates((0, 1), 10, 10**9, 10)


def test_row_products_are_exact_in_int32_up_to_the_bound():
    # rows are nonnegative and sum to num_classes, so |row . v| is at most
    # num_classes * max|v|; int32 holds that while it is below 2**31
    classes = 31
    top = (2**31 - 1) // classes
    rows = np.random.default_rng(7).multinomial(classes, [0.1] * 10, size=5000).astype(np.int32)
    rows[:10] = 0
    rows[:10, 0] = classes  # rows at the extreme
    v = np.random.default_rng(8).integers(-top, top + 1, size=10)
    v[0], v[1] = top, -top
    assert _product_dtype(classes, (3, -2), v) is np.int32
    got = rows @ v.astype(np.int32)
    assert got.dtype == np.int32
    assert np.array_equal(got, rows.astype(np.int64) @ v)
    # one step above the bound int32 wraps, and the helper moves to int64
    v[0] = top + 1
    assert _product_dtype(classes, (3, -2), v) is np.int64
    assert _product_dtype(classes, [-(top + 1)]) is np.int64
    assert not np.array_equal(rows @ v.astype(np.int32), rows.astype(np.int64) @ v)
    assert _product_dtype(0, v) is np.int32 and _product_dtype(classes) is np.int32
