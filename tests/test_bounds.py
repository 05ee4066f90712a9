"""Closed-form bounds, growth rates, the rate table, and assembled reports."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import isqrt

import pytest

from linefree.bounds import (
    CubicBound,
    RootExpression,
    alpha_fgr,
    alpha_from_set,
    best_lower,
    bounds_report,
    certified_upper,
    cubic_displayed_radicand,
    lower_closed_forms,
    table1,
    upper_cubic,
    upper_recursive,
    upper_simple,
)


# --- exact root arithmetic ------------------------------------------------


def test_root_expression_floor_and_decimals():
    e = RootExpression(a=10, radicand=2, den=3)  # (10 - sqrt(2)) / 3 = 2.861...
    assert e.floor == 2
    assert e.decimal_up() == "2.862"
    exact = RootExpression(a=7, radicand=4, den=2)  # (7 - 2) / 2 = 2.5
    assert exact.floor == 2
    assert exact.decimal_up() == "2.500"
    with pytest.raises(ValueError):
        RootExpression(a=1, radicand=-1, den=1)
    with pytest.raises(ValueError):
        RootExpression(a=1, radicand=1, den=0)


def test_root_expression_brackets_true_value():
    # floor/decimal_up must bracket the real number for assorted inputs.
    for a, rad, den in [(100, 7919, 13), (3, 2, 1), (0, 10, 7), (50, 2500, 4)]:
        e = RootExpression(a, rad, den)
        scaled, exact_flag = e.scaled_floor(10**6)
        approx = (a - rad**0.5) / den * 10**6
        assert scaled <= approx + 1e-3
        assert scaled + 1 > approx - 1e-3
        if exact_flag:
            assert isqrt(rad) ** 2 == rad


# --- recursive and cubic upper bounds --------------------------------------


@pytest.mark.parametrize(
    "p,n,k,r,floor",
    [(5, 2, 5, 16, 74), (7, 2, 7, 36, 243), (3, 2, 3, 4, 9)],
)
def test_upper_recursive_floors(p, n, k, r, floor):
    b = upper_recursive(p, n, k, r)
    assert b.floor == floor


def test_upper_recursive_decimals():
    assert upper_recursive(5, 2, 5, 16).decimal_up() == "74.492"


def test_upper_recursive_validation():
    with pytest.raises(ValueError):
        upper_recursive(4, 2, 4, 9)  # p not prime
    with pytest.raises(ValueError):
        upper_recursive(5, 2, 2, 16)  # k too small
    with pytest.raises(ValueError):
        upper_recursive(5, 2, 5, 26)  # r > p^n


def test_recursive_quadratic_root_is_consistent():
    # The floor value f must satisfy the defining quadratic inequality
    # den/2 * f^2 - a*f + (a^2 - radicand)/4/den <= 0  at the root scale;
    # equivalently f <= (a - sqrt(radicand)) / den < f + 1.
    e = upper_recursive(5, 2, 5, 16)
    f = e.floor
    # (a - den*f)^2 >= radicand  and  (a - den*(f+1))^2 < radicand
    assert (e.a - e.den * f) ** 2 >= e.radicand
    assert (e.a - e.den * (f + 1)) ** 2 < e.radicand


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cubic_bound_consistency(p):
    cb = upper_cubic(p)
    assert isinstance(cb, CubicBound)
    assert cb.exact.radicand == cubic_displayed_radicand(p)
    assert cb.exact_below_simplified()
    assert cb.simplified.floor >= cb.exact.floor


def test_cubic_pins_for_p5():
    cb = upper_cubic(5)
    assert cb.exact.floor == 74
    assert cb.exact.decimal_up() == "74.492"
    assert cb.simplified.decimal_up() == "74.929"
    assert cb.simplified.floor == 74


def test_upper_simple_pins():
    assert upper_simple(5, 3) == (94, 76)
    assert upper_simple(5, 2) == (19, 16)
    assert upper_simple(3, 2) == (5, 4)


# --- lower bounds -----------------------------------------------------------


def test_lower_closed_forms_materialized():
    entries = lower_closed_forms(5, 3)
    assert {"hypercube", "layered", "sqrt", "reference-set", "product"} <= set(entries)
    assert entries["hypercube"].size == 64 and entries["hypercube"].backed
    assert entries["layered"].size == 66 and entries["layered"].backed
    assert entries["sqrt"].size == 65 and entries["sqrt"].backed
    assert entries["reference-set"].size == 70


def test_lower_closed_forms_closed_form_only():
    entries = lower_closed_forms(17, 5)  # 17^5 too large to materialize
    assert not entries["layered"].backed
    assert entries["layered"].size == 16**5 + 3 * 16 * 15**2 // 2


def test_best_lower_pins():
    assert best_lower(5, 3) == (70, "fig70")
    assert best_lower(7, 3) == (225, "qr(7)")
    assert best_lower(5, 4) == (280, "hypercube(5,1) x fig70")


def test_best_lower_dominates_each_single_family():
    for p, n in [(5, 3), (7, 3), (5, 4), (11, 3), (7, 4)]:
        b, _ = best_lower(p, n)
        for e in lower_closed_forms(p, n).values():
            assert b >= e.size


# --- growth rates -----------------------------------------------------------


def test_alpha_from_set_pins():
    assert alpha_from_set(70, 3).display == "4.121"
    assert alpha_from_set(225, 3).display == "6.082"
    assert alpha_from_set(64, 3).display == "4.000"
    with pytest.raises(ValueError):
        alpha_from_set(0, 3)


def test_alpha_from_set_truncation_is_exact():
    # milli must be the exact integer truncation: milli^n <= size*1000^n < (milli+1)^n
    for size, n in [(70, 3), (225, 3), (268, 4), (66, 3), (10**9 + 7, 5), (3**700, 3), (2**1100 + 1, 1)]:
        m = alpha_from_set(size, n).milli
        assert m**n <= size * 1000**n < (m + 1) ** n


def test_alpha_fgr_pins():
    want = {5: 4090, 7: 6066, 11: 10043, 13: 12036, 17: 16028}
    for p, milli in want.items():
        r = alpha_fgr(p)
        assert r.milli == milli
        assert r.display == f"{milli // 1000}.{milli % 1000:03d}"


def test_alpha_fgr_is_exact_truncation():
    # (milli/1000)^(2p) <= p*(p-1)^(2p-1) must hold with the next step failing.
    # from p = 37 on the target passes the float range
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 53, 71, 89, 97, 101):
        m = alpha_fgr(p).milli
        v = p * (p - 1) ** (2 * p - 1)
        assert m ** (2 * p) <= v * 1000 ** (2 * p) < (m + 1) ** (2 * p)


TABLE1_MILLI = {
    3: (4041, 6027, 10016, 12013, 16010),
    4: (4046, 6034, 10022, 12019, 16014),
    5: (4041, 6034, 10024, 12020, 16016),
    6: (4034, 6031, 10024, 12021, 16017),
    7: (4027, 6028, 10023, 12020, 16017),
}

DOMINATED = {(5, 5), (5, 6), (5, 7), (7, 5), (7, 6), (7, 7), (11, 6), (11, 7), (13, 7)}


def test_table1_full_grid():
    t = table1()
    assert t.ps == (5, 7, 11, 13, 17) and t.ns == (3, 4, 5, 6, 7)
    for n, row in TABLE1_MILLI.items():
        for p, milli in zip(t.ps, row):
            assert t.milli[(p, n)] == milli, (p, n)
            assert ((p, n) in t.dominated) == ((p, n) in DOMINATED), (p, n)
    assert {p: t.fgr[p].milli for p in t.ps} == {
        5: 4090,
        7: 6066,
        11: 10043,
        13: 12036,
        17: 16028,
    }


def test_dominance_uses_exact_rate_comparison():
    # (5,5) is dominated by dimension 4 (268^5 >= 1078^4) even though its
    # truncated display ties (5,3)'s; the n=3 comparison alone would not
    # flag it (66^5 < 1078^3), so the flag must use exact arithmetic.
    from linefree.bounds import construction

    assert 268**5 >= construction("layered", 5, 5).size ** 4
    assert 66**5 < construction("layered", 5, 5).size ** 3
    t = table1()
    assert (5, 5) in t.dominated and (5, 3) not in t.dominated


# --- certified bounds and reports -------------------------------------------


def test_certified_upper_descends_to_73():
    res = certified_upper(5, 74)
    assert res.value == 73
    assert res.trace[0] == (74, "INFEASIBLE")
    assert res.trace[-1] == (73, "UNKNOWN")


def test_certified_upper_descends_to_242_at_the_default_budget():
    res = certified_upper(7, 243)
    assert res.value == 242
    assert res.trace == ((243, "INFEASIBLE"), (242, "UNKNOWN"))


def test_certified_upper_stops_at_unknown_start():
    res = certified_upper(5, 70, max_steps=1)
    assert res.value is None
    assert res.trace == ((70, "UNKNOWN"),)


def test_bounds_report_5_3():
    rep = bounds_report(5, 3)
    assert rep.best_lower == 70
    assert rep.best_upper == 73
    assert rep.upper["ap"] == 94
    assert rep.upper["sziklai"] == 76
    assert rep.upper["recursive"] == 74
    assert rep.upper["cubic"] == 74
    assert rep.upper["certified"] == 73
    assert rep.lower["reference-set"].size == 70
    assert rep.upper_real["recursive"] == "74.492"
    d = rep.to_dict()
    assert d["interval"] == [70, 73]
    assert any(r["display"] == "4.121" for r in d["rates"])


def test_bounds_report_plane_is_exact():
    rep = bounds_report(5, 2)
    assert rep.upper["exact"] == 16
    assert rep.best_upper == 16
    assert rep.best_lower == 16


def test_bounds_report_k_less_than_p():
    rep = bounds_report(7, 2, 3)
    assert rep.lower["box"].size == 4
    assert rep.lower["cyclic-product"].size == 9  # one_dim_cap(7,3) = 3
    assert "recursive" in rep.upper
    assert rep.best_upper >= rep.best_lower
    one_d = bounds_report(7, 1, 3)
    assert one_d.upper["exact"] == 3 and one_d.lower["exact"].size == 3


# sha256 of json.dumps([to_dict() for k in 3..p], sort_keys=True)
REPORT_PINS = {
    (5, 1): "0c77bc9db66a3defa41a059e70a1ce7ba915332b7cf0b70706faf0eee4062fad",
    (5, 2): "cf539b71175627921f9a3e2ecd2dfd9e26a79a9a7055b99ebbbee4836e45b479",
    (5, 3): "0522964145d5396b776760d64e7b7a9522567df70a7d3d630de155af7e451700",
    (5, 4): "cfb124f4030307d79a24907a0512c6aa60a7bafed9021f1a5f7222129d32ea6e",
    (7, 1): "22d36028345b3c5ab204036888d18bfc055c9f47e2d33dc8835c6af20273db53",
    (7, 2): "a9f00c219e88d1a17e8d5f35c760d698c3cbe48f8bf198837576a0e27685717c",
    (7, 3): "6f2ce4b514184fa3a8a313bd62cfdb11a30640416c9b6d4d3cac32230316e2d1",
    (7, 4): "fb790ef9de3a1a50a064d53865629426704de43bb1c1a72cc0aa62a90c45867f",
}


@pytest.mark.parametrize("p, n", sorted(REPORT_PINS))
def test_bounds_reports_are_pinned_for_every_k(p, n):
    docs = [bounds_report(p, n, k).to_dict() for k in range(3, p + 1)]
    got = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert got == REPORT_PINS[(p, n)]


# sha256 of json.dumps(bounds_report(p, n).to_dict(), sort_keys=True) at k = p:
# sqrt ties layered at p = 11 and 13, qr leads at 31, (17, 5) is closed-form only
CATALOGUE_PINS = {
    (11, 3): ("b12df0ffb9045c466a47187d418c56e4fb1f7ae936e4851a1ad6b081fa47fc8c", (1005, "layered(11,3)")),
    (13, 3): ("61fd3eea3c0dc572ff10ad0dc518b8c2f51f2eac10eed8c6b8ddb17336cc89de", (1734, "layered(13,3)")),
    (31, 3): ("152d3ed0fa29f55755ee3ebfde0a5b36d301701bd8f47526af34ebce25d61162", (27030, "qr(31)")),
    (17, 5): ("6dc89456db00487563a857ec6d6345edc064f0379ba2df4783fa6d9c3cb364d4", (1053976, "layered(17,5)")),
}


@pytest.mark.parametrize("p, n", sorted(CATALOGUE_PINS))
def test_catalogue_reports_and_best_lower_are_pinned(p, n):
    digest, best = CATALOGUE_PINS[(p, n)]
    doc = bounds_report(p, n).to_dict()
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest
    assert best_lower(p, n) == best


def test_cubic_simplified_bound_is_pinned_for_every_prime_below_2000():
    from linefree.geometry import is_prime

    rows = []
    for p in filter(is_prime, range(3, 2000)):
        cb = upper_cubic(p)
        rows.append([p, cb.simplified.decimal_up(), cb.simplified.floor, cb.exact_below_simplified()])
    assert len(rows) == 302
    got = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert got == "1df5c345f7e669b19687d72c612009a00706cd98549a72b66ca13fac69d96f22"


def test_bounds_report_validation():
    with pytest.raises(ValueError):
        bounds_report(6, 2)
    with pytest.raises(ValueError):
        bounds_report(5, 2, 2)
