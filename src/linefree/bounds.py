"""Closed-form and computed bounds on the maximum size of k-progression-free sets.

Lower bounds come from one catalogue: catalogue(p, n) lists the named
constructions that apply at (p, n) (hypercube, layered, sqrt, qr and the
bundled 70-point set), each with its report key, best_lower label,
closed-form size, note and builder.  Reports, best_lower and the size
functions all read it; one pass over dimensions finds both the best
bound and the best product of two smaller dimensions.

All integer bounds are exact.  Bounds involving square roots are carried
as integer triples (a - sqrt(radicand)) / den and rendered with directed
rounding: upper bounds round up, lower-bound rates round down, so every
printed digit string is itself a valid bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt
from typing import Callable, NamedTuple

from . import constructions as cons
from .geometry import require_k, require_odd_prime
from .pointset import PointSet


def _milli_str(milli: int) -> str:
    sign = "-" if milli < 0 else ""
    m = abs(milli)
    return f"{sign}{m // 1000}.{m % 1000:03d}"


@dataclass(frozen=True)
class RootExpression:
    """The exact real number (a - sqrt(radicand)) / den, den > 0."""

    a: int
    radicand: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0 or self.radicand < 0:
            raise ValueError("need den > 0 and radicand >= 0")

    def scaled_floor(self, scale: int) -> tuple[int, bool]:
        """(floor(scale * value), value*scale is an exact integer)."""
        q = scale * self.a
        rr = scale * scale * self.radicand
        s = isqrt(rr)
        if s * s == rr:
            m = q - s
            return m // self.den, m % self.den == 0
        m = q - s  # scale*value lies in the open interval ((m-1)/den, m/den)
        return (m - 1) // self.den, False

    @property
    def floor(self) -> int:
        return self.scaled_floor(1)[0]

    def decimal_up(self, places: int = 3) -> str:
        scale = 10**places
        fl, exact = self.scaled_floor(scale)
        n = fl if exact else fl + 1
        sign = "-" if n < 0 else ""
        n = abs(n)
        return f"{sign}{n // scale}.{n % scale:0{places}d}"

class SimpleBounds(NamedTuple):
    ap: int
    sziklai: int


def upper_simple(p: int, n: int) -> SimpleBounds:
    """Two classical upper bounds for sets with no full line.

    ap: the complement must meet every line, and a minimal line-blocking
    set has (p^n - 1)/(p - 1) points.  sziklai: a stronger blocking-set
    bound, p^n - 2p^(n-1) + 1.
    """
    require_odd_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    pn = p**n
    return SimpleBounds(pn - (pn - 1) // (p - 1), pn - 2 * p ** (n - 1) + 1)


@dataclass(frozen=True)
class RecursiveBound:
    """Upper bound on r_k(F_p^(n+1)) from r_k(F_p^n) <= r.

    Counting (point pair, hyperplane) incidences two ways pins the next
    dimension's maximum below the smaller root of a quadratic:
    (a - sqrt(radicand)) / den with a = 2(p^(n+1)-1)r + p^n,
    radicand = 4(p^(n+1)-1)r(p^n-r) + p^(2n), den = 2p^n.
    """

    p: int
    n: int
    k: int
    r: int
    expr: RootExpression

    @property
    def floor(self) -> int:
        return self.expr.floor

    @property
    def decimal_up(self) -> str:
        return self.expr.decimal_up(3)

    @property
    def pair_incidences(self) -> int:
        """(pair, hyperplane) incidence count s at the floor value."""
        return (self.p**self.n - 1) // (self.p - 1) * comb(self.floor, 2)


def upper_recursive(p: int, n: int, k: int, r: int) -> RecursiveBound:
    """Bound r_k(F_p^(n+1)) given r_k(F_p^n) <= r."""
    require_odd_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    require_k(p, k)
    pn = p**n
    if not 0 <= r <= pn:
        raise ValueError(f"r must be in [0, p^n] = [0, {pn}], got {r}")
    big = p ** (n + 1) - 1
    a = 2 * big * r + pn
    radicand = 4 * big * r * (pn - r) + pn * pn
    return RecursiveBound(p=p, n=n, k=k, r=r, expr=RootExpression(a, radicand, 2 * pn))


def cubic_displayed_radicand(p: int) -> int:
    """The radicand printed in the three-dimensional corollary."""
    return (
        8 * p**6 - 20 * p**5 + 17 * p**4 - 12 * p**3 + 20 * p**2 - 16 * p + 4
    )


@dataclass(frozen=True)
class CubicBound:
    """Upper bound for r_p(F_p^3): exact root form and a relaxation.

    exact: the recursive bound seeded with r_p(F_p^2) = (p-1)^2, whose
    radicand algebraically equals cubic_displayed_radicand(p).
    simplified: p^3 - 2p^2 - (sqrt(2)-1)p + 2, always >= exact for p >= 3.
    """

    p: int
    exact: RecursiveBound

    @property
    def simplified(self) -> RootExpression:
        p = self.p
        return RootExpression(p**3 - 2 * p**2 + p + 2, 2 * p**2, 1)

    @property
    def simplified_scaled_floor(self) -> int:
        return self.simplified.scaled_floor(1000)[0]

    @property
    def simplified_decimal_up(self) -> str:
        return self.simplified.decimal_up(3)

    @property
    def simplified_floor(self) -> int:
        return self.simplified.floor

    def exact_below_simplified(self) -> bool:
        """Check exact <= simplified via non-overlapping scaled brackets."""
        scale = 1 << 61
        ex_hi = self.exact.expr.scaled_floor(scale)[0] + 1
        return ex_hi <= self.simplified.scaled_floor(scale)[0]


def upper_cubic(p: int) -> CubicBound:
    require_odd_prime(p)
    exact = upper_recursive(p, 2, p, (p - 1) ** 2)
    displayed = cubic_displayed_radicand(p)
    if exact.expr.radicand != displayed:
        raise AssertionError("cubic radicand mismatch; algebra drifted")
    return CubicBound(p=p, exact=exact)


class Construction(NamedTuple):
    key: str  # name in a report's lower bounds
    label: str  # name in best_lower
    size: int  # closed form
    note: str
    build: Callable[[], PointSet]


def catalogue(p: int, n: int) -> list[Construction]:
    """The named constructions that apply at (p, n), in tie order."""
    cube = (p - 1) ** n
    out = [
        Construction(
            "hypercube", f"hypercube({p},{n})", cube, f"(p-1)^{n}", lambda: cons.hypercube(p, n)
        )
    ]
    if n >= 3:
        out.append(Construction(
            "layered", f"layered({p},{n})", cube + (n - 2) * (p - 1) * (p - 2) ** (n - 3) // 2,
            f"(p-1)^{n} + ({n}-2)/2*(p-1)*(p-2)^{n - 3}", lambda: cons.layered(p, n),
        ))
    if n == 3 and p >= 5:
        r = isqrt(p)
        out.append(Construction(
            "sqrt", f"sqrt({p})", (p - 2) * (p - 1) ** 2 + p * p - p + 1 - r - p // r,
            f"(p-2)(p-1)^2 + p^2 - p + 1 - {r} - {p // r}", lambda: cons.sqrt_construction(p),
        ))
    if n == 3 and p % 24 == 7:
        # at p = 7 two removal families coincide, leaving 9 points over (p-1)^3
        out.append(Construction(
            "qr", f"qr({p})", 225 if p == 7 else cube + p - 1,
            "(p-1)^3 + (p-1)" + (" + (p-1)/2, coinciding removals" if p == 7 else ""),
            lambda: cons.qr_construction(p),
        ))
    if (p, n) == (5, 3):
        out.append(Construction(
            "reference-set", "fig70", 70, "bundled 70-point set",
            lambda: cons.load_reference_set("fig70"),
        ))
    return out


def _size(key: str, p: int, n: int) -> int:
    for c in catalogue(p, n):
        if c.key == key:
            return c.size
    raise ValueError(f"the {key} construction does not apply at p={p}, n={n}")


def hypercube_size(p: int, n: int) -> int:
    return _size("hypercube", p, n)


def layered_size(p: int, n: int) -> int:
    return _size("layered", p, n)


def sqrt_size(p: int) -> int:
    return _size("sqrt", p, 3)


def qr_size(p: int) -> int:
    return _size("qr", p, 3)


@dataclass(frozen=True)
class LowerEntry:
    name: str
    size: int
    note: str
    backed: bool  # True when an actual set was materialized and measured


_MATERIALIZE_CAP = 1 << 18


def lower_closed_forms(p: int, n: int) -> dict[str, LowerEntry]:
    """Construction-backed lower bounds applicable at (p, n).

    Sets are materialized and measured when p^n is small enough;
    otherwise the closed-form size is reported with backed=False.  The
    best product of two smaller dimensions is reported for n >= 2, even
    when it loses.
    """
    require_odd_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    out: dict[str, LowerEntry] = {}
    small = p**n <= _MATERIALIZE_CAP
    for c in catalogue(p, n):
        if not small:
            note = c.note + " (closed form; set not materialized)"
            out[c.key] = LowerEntry(c.key, c.size, note, False)
            continue
        size = c.build().size
        if size != c.size:
            raise AssertionError(f"{c.key} size {size} differs from closed form {c.size}")
        out[c.key] = LowerEntry(c.key, size, c.note, True)
    product = _best_lowers(p, n)[1]
    if product is not None:
        out["product"] = LowerEntry("product", *product, False)
    return out


def _best_lowers(p: int, n: int) -> tuple[tuple[int, str], tuple[int, str] | None]:
    """(best lower bound at n, best product of two smaller dimensions or None).

    Ties go to the earlier catalogue entry, then to the single set, then
    to the smaller first factor.
    """
    best: dict[int, tuple[int, str]] = {}
    for m in range(1, n + 1):
        product = None
        for m1 in range(1, m // 2 + 1):
            s = best[m1][0] * best[m - m1][0]
            if product is None or s > product[0]:
                product = (s, f"{best[m1][1]} x {best[m - m1][1]}")
        single = max(((c.size, c.label) for c in catalogue(p, m)), key=lambda e: e[0])
        best[m] = product if product is not None and product[0] > single[0] else single
    return best[n], product


def best_lower(p: int, n: int) -> tuple[int, str]:
    """Best known lower bound, allowing products of smaller-dimension sets."""
    return _best_lowers(p, n)[0]


@dataclass(frozen=True)
class Rate:
    """A lower bound on the growth rate alpha_p, truncated to 3 decimals."""

    name: str
    milli: int
    note: str = ""

    @property
    def display(self) -> str:
        return _milli_str(self.milli)


def _trunc_nth_root_milli(value: int, n: int, scale: int = 1000) -> int:
    """Largest N with (N/scale)^n <= value, i.e. trunc(value^(1/n)*scale).

    Integer bisection, so no value is too large for a float.
    """
    if value < 0 or n < 1:
        raise ValueError("need value >= 0 and n >= 1")
    target = value * scale**n
    lo, hi = 0, 1 << -(-target.bit_length() // n)  # lo^n <= target < hi^n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**n <= target:
            lo = mid
        else:
            hi = mid
    return lo


def alpha_from_set(size: int, n: int) -> Rate:
    """size^(1/n), truncated to 3 decimals: a valid growth-rate lower bound."""
    if size < 1 or n < 1:
        raise ValueError("need size >= 1 and n >= 1")
    return Rate(
        name=f"set({size},{n})",
        milli=_trunc_nth_root_milli(size, n),
        note=f"{size}^(1/{n}), truncated",
    )


def alpha_fgr(p: int) -> Rate:
    """The general-p rate p^(1/2p) * (p-1)^((2p-1)/2p), truncated.

    Valid only as a bound for dimensions >= 2p.
    """
    require_odd_prime(p)
    n = 2 * p
    value = p * (p - 1) ** (2 * p - 1)
    return Rate(
        name=f"fgr({p})",
        milli=_trunc_nth_root_milli(value, n),
        note="valid for dimensions >= 2p",
    )


@dataclass(frozen=True)
class Table1Entry:
    p: int
    n: int
    milli: int
    dominated: bool

    @property
    def display(self) -> str:
        return _milli_str(self.milli)


@dataclass(frozen=True)
class RateTable:
    ps: tuple[int, ...]
    ns: tuple[int, ...]
    entries: dict[tuple[int, int], Table1Entry]
    fgr: dict[int, Rate]

    def entry(self, p: int, n: int) -> Table1Entry:
        return self.entries[(p, n)]


def table1(ps: tuple[int, ...] = (5, 7, 11, 13, 17), ns: tuple[int, ...] = (3, 4, 5, 6, 7)) -> RateTable:
    """Layered-construction rates per (p, n), plus the general-p row.

    An entry is flagged dominated when some smaller listed dimension
    achieves a rate at least as large (exact comparison of true rates:
    size(n')^n >= size(n)^(n'), not of the truncated displays).
    """
    entries: dict[tuple[int, int], Table1Entry] = {}
    for p in ps:
        sizes = {n: layered_size(p, n) for n in ns}
        for n in ns:
            dominated = any(
                sizes[m] ** n >= sizes[n] ** m for m in ns if m < n
            )
            entries[(p, n)] = Table1Entry(
                p=p, n=n, milli=_trunc_nth_root_milli(sizes[n], n), dominated=dominated
            )
    return RateTable(
        ps=tuple(ps), ns=tuple(ns), entries=entries, fgr={p: alpha_fgr(p) for p in ps}
    )


@dataclass(frozen=True)
class CertifiedResult:
    """Outcome of descending infeasibility certification from a start size."""

    value: int | None
    trace: tuple[tuple[int, str], ...]  # (target, verdict) in the order tried


def certified_upper(p: int, start: int, *, max_steps: int = 3) -> CertifiedResult:
    """Largest certified bound obtainable by refuting sizes downward.

    Tries T = start, start-1, ... while the certificate engine returns
    INFEASIBLE (each refutation proves the maximum is < T); stops at the
    first UNKNOWN or after max_steps attempts, each at the certificate
    engine's default budget.  Deterministic for fixed arguments.
    """
    from . import certify as ct  # deferred: certify imports verifier only

    trace: list[tuple[int, str]] = []
    value: int | None = None
    t = start
    for _ in range(max_steps):
        cert = ct.prove_infeasible(ct.make_instance(p, t))
        trace.append((t, cert.verdict))
        if cert.verdict != ct.INFEASIBLE:
            break
        value = t - 1
        t -= 1
    return CertifiedResult(value=value, trace=tuple(trace))


@dataclass(frozen=True)
class BoundsReport:
    p: int
    n: int
    k: int
    lower: dict[str, LowerEntry]
    upper: dict[str, int]
    upper_real: dict[str, str]
    rates: tuple[Rate, ...]
    notes: tuple[str, ...]

    @property
    def best_lower(self) -> int:
        return max(e.size for e in self.lower.values())

    @property
    def best_upper(self) -> int:
        return min(self.upper.values())

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "k": self.k,
            "lower": {name: e.size for name, e in self.lower.items()},
            "lower_notes": {name: e.note for name, e in self.lower.items()},
            "upper": dict(self.upper),
            "upper_real": dict(self.upper_real),
            "interval": [self.best_lower, self.best_upper],
            "rates": [
                {"name": r.name, "display": r.display, "milli": r.milli, "note": r.note}
                for r in self.rates
            ],
            "notes": list(self.notes),
        }


def bounds_report(
    p: int, n: int, k: int | None = None, *, include_certified: bool = True
) -> BoundsReport:
    """Assemble lower and upper bounds for r_k(F_p^n).

    For k = p: constructions give lower bounds; blocking-set, recursive,
    cubic, and (for n = 3, p in the certificate table) certified bounds
    give upper bounds, the last from two certificate steps.  For k < p:
    the box (k-1)^n and product splits give lower bounds.  The recursive
    chain starts from the exact plane value (p-1)^2 for k = p and from the
    exact one-dimensional value for k < p.
    """
    require_odd_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if k is None:
        k = p
    require_k(p, k)

    notes: list[str] = []
    upper: dict[str, int] = {}
    upper_real: dict[str, str] = {}
    rates: list[Rate] = []

    if k == p:
        lower = lower_closed_forms(p, n)
        upper["ap"], upper["sziklai"] = upper_simple(p, n)
        dim, r = 2, (p - 1) ** 2
        chain_note = f"recursive chain from r_p(plane) = {r}"
        if n == 2:
            upper["exact"] = r
            notes.append("r_p of the plane is exactly (p-1)^2")
    else:
        from .search import one_dim_cap

        dim, r = 1, one_dim_cap(p, k)
        chain_note = f"recursive chain from exact 1-d value r_{k} = {r}"
        lower = {"box": LowerEntry("box", (k - 1) ** n, f"(k-1)^{n}", False)}
        if n == 1:
            lower["exact"] = LowerEntry("exact", r, "exact 1-d maximum", True)
            upper["exact"] = r
        elif r > k - 1:
            lower["cyclic-product"] = LowerEntry(
                "cyclic-product", r**n, f"{r}^{n} from the 1-d maximum", False
            )

    if dim < n:
        for d in range(dim, n):
            last = upper_recursive(p, d, k, r)
            r = last.floor
        upper["recursive"] = last.floor
        upper_real["recursive"] = last.decimal_up
        if k == p:
            chain_note += f"; pair-plane incidence count s = {last.pair_incidences} at the floor"
        notes.append(chain_note)

    if k == p:
        if n == 3:
            cb = upper_cubic(p)
            upper["cubic"] = cb.exact.floor
            upper_real["cubic"] = cb.exact.decimal_up
            upper_real["cubic_simplified"] = cb.simplified_decimal_up
        if include_certified and n == 3:
            from . import certify as ct

            if p in ct.DEFAULT_SUBPLANE_TABLE:
                res = certified_upper(p, min(upper.values()), max_steps=2)
                for t, verdict in res.trace:
                    notes.append(f"certify target {t}: {verdict}")
                if res.value is not None:
                    upper["certified"] = res.value
        best = max(e.size for e in lower.values())
        rates.append(alpha_from_set(best, n))
        rates.append(alpha_fgr(p))

    report = BoundsReport(
        p=p,
        n=n,
        k=k,
        lower=lower,
        upper=upper,
        upper_real=upper_real,
        rates=tuple(rates),
        notes=tuple(notes),
    )
    if report.best_lower > report.best_upper:
        raise AssertionError(
            f"bound inversion at (p={p}, n={n}, k={k}): "
            f"lower {report.best_lower} > upper {report.best_upper}"
        )
    return report
