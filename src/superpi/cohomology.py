"""Cech machinery for vector-field valued 2-forms on the standard covering.

A TensorSection stores, chart-locally, an element

    sum  c^{ab}_k  dz_a ^ dz_b  (x)  d/dz_k        (a < b)

with exact rational coefficients; a degree-1 cochain assigns one section to
every increasing chart pair, kept in the frames of the second chart.  The
obstruction extractor inverts the degree-2 correction of an atlas's even
transitions against the reduced Jacobian, producing the cochain whose
multiple of the standard representative is the gluing constant.

The lifting checks work upstream of the charts, in homogeneous coordinates
X_0 .. X_n, where the rank-(n+1) twisted free sheaf has the global frame
e_0 .. e_n: sections there carry coefficients that must be homogeneous of
X-degree -2 (one -1 twist per wedge factor).

The coboundary search is exact but degree-bounded: candidate 0-cochains
have polynomial coefficients of total degree at most D on each chart, which
is a finite, honestly incomplete certificate of nontriviality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Optional

from .atlas import Atlas, TransitionMap
from .builders import build_projective_superspace, coordinate_name, reduce_atlas
from .rational import (
    Poly,
    RatFun,
    equal_by_key,
    rat_mat_inverse,
    solve_fraction_system,
    sum_by_key,
)
from .report import FAIL, PASS, VerificationReport
from .superalgebra import Chart, Pullback, SuperFunction

SectionKey = tuple[str, tuple[str, str]]  # (vector coord, (form coord a, form coord b))

# The most entries (rows x columns) a coboundary system may have before it
# is written out dense for the exact solve: the 25,020 x 4,200 system of
# n = 4 at degree bound 3 fits, the 131,910 x 16,800 one of n = 5 does not.
MAX_DENSE_ENTRIES = 120_000_000


@dataclass(frozen=True)
class TensorSection:
    chart: Chart
    components: dict[SectionKey, RatFun]

    def __post_init__(self):
        clean = {}
        evens = self.chart.even_coords
        for (k, (a, b)), coeff in self.components.items():
            if k not in evens or a not in evens or b not in evens:
                raise ValueError(f"unknown coordinate in section key ({k}, ({a}, {b}))")
            if evens.index(a) >= evens.index(b):
                raise ValueError(f"form indices ({a}, {b}) not increasing")
            if not coeff.is_zero:
                clean[(k, (a, b))] = coeff
        object.__setattr__(self, "components", clean)

    @classmethod
    def zero(cls, chart: Chart) -> TensorSection:
        return cls(chart, {})

    @property
    def is_zero(self) -> bool:
        return not self.components

    def _key_order(self, key: SectionKey):
        evens = self.chart.even_coords
        k, (a, b) = key
        return (evens.index(k), evens.index(a), evens.index(b))

    def __add__(self, other: TensorSection) -> TensorSection:
        if self.chart != other.chart:
            raise ValueError("sections on different charts")
        out = sum_by_key(dict(self.components), other.components.items())
        return TensorSection(self.chart, out)

    def __sub__(self, other: TensorSection) -> TensorSection:
        return self + (-other)

    def __neg__(self) -> TensorSection:
        return TensorSection(self.chart, {k: -c for k, c in self.components.items()})

    def scale(self, value) -> TensorSection:
        return TensorSection(
            self.chart, {k: c.scale(value) for k, c in self.components.items()}
        )

    def equals(self, other: TensorSection) -> bool:
        if self.chart != other.chart:
            return False
        return equal_by_key(self.components, other.components)

    def to_str(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for key in sorted(self.components, key=self._key_order):
            k, (a, b) = key
            parts.append(f"d{a}^d{b} (x) d/d{k}: {self.components[key].to_str()}")
        return "; ".join(parts)


class BodyPullback:
    """The reduced (body) part of a transition, for pulling sections back.

    Holds the body Jacobian of the transition, its inverse and one Pullback
    of the bodies, built once: every section and coefficient pulled back
    through the object shares them and the Pullback's caches.
    """

    def __init__(self, t: TransitionMap):
        self.target = Chart(t.target.name, t.target.even_coords, ())
        self.source = Chart(t.source.name, t.source.even_coords, ())
        images = {name: t.images[name].body() for name in self.target.even_coords}
        self.jacobian = [
            [images[a].derivative(c) for c in self.source.even_coords]
            for a in self.target.even_coords
        ]
        self.inverse = rat_mat_inverse(self.jacobian)
        self.pull = Pullback(
            self.target,
            {name: SuperFunction.from_ratfun(self.source, body) for name, body in images.items()},
        )

    def __call__(self, coeff: RatFun) -> RatFun:
        """A function on the target chart, rewritten in the source coordinates."""
        return self.pull(SuperFunction.from_ratfun(self.target, coeff)).body()


def pullback_tensor(section: TensorSection, t: TransitionMap | BodyPullback) -> TensorSection:
    """Rewrite a section on t.target in the frames and coordinates of t.source.

    Only the reduced (body) part of the transition is used.  Forms pull back
    through the Jacobian of the transition, vector fields through its
    inverse, and coefficients through one Pullback of the bodies; pass a
    BodyPullback to share all three between sections.  Everything stays
    exact.
    """
    body = t if isinstance(t, BodyPullback) else BodyPullback(t)
    if section.chart.even_coords != body.target.even_coords:
        raise ValueError("section does not live on the transition's target chart")
    src_names = body.source.even_coords
    m_rows, n_rows = body.jacobian, body.inverse
    m_idx = {name: i for i, name in enumerate(body.target.even_coords)}
    terms: list[tuple[SectionKey, RatFun]] = []
    for (k, (a, b)), coeff in section.components.items():
        coeff_src = body(coeff)
        ka, kb, kk = m_idx[a], m_idx[b], m_idx[k]
        for ci, cd in combinations(range(len(src_names)), 2):
            form = (
                m_rows[ka][ci] * m_rows[kb][cd] - m_rows[ka][cd] * m_rows[kb][ci]
            )
            if form.is_zero:
                continue
            for qi, q in enumerate(src_names):
                frame = n_rows[qi][kk]
                if frame.is_zero:
                    continue
                key = (q, (src_names[ci], src_names[cd]))
                terms.append((key, coeff_src * form * frame))
    return TensorSection(body.source, sum_by_key({}, terms))


@dataclass(frozen=True)
class CechCochain1:
    """Pair-indexed sections, each kept on the later chart of its pair."""

    atlas: Atlas
    sections: dict[tuple[str, str], TensorSection]

    def section(self, i: str, j: str) -> TensorSection:
        return self.sections[(i, j)]

    def is_zero(self) -> bool:
        return all(s.is_zero for s in self.sections.values())

    def equals(self, other: CechCochain1) -> bool:
        return equal_by_key(self.sections, other.sections)

    def scale(self, value) -> CechCochain1:
        return CechCochain1(
            self.atlas, {k: s.scale(value) for k, s in self.sections.items()}
        )


def omega_representative(n: int) -> CechCochain1:
    """The standard generator: on (i, j) the sum over k of

        (dz_ij ^ dz_kj / z_ij) (x) d/dz_kj

    written on chart j.
    """
    if n < 2:
        raise ValueError("the obstruction cochain needs n >= 2")
    atlas = build_projective_superspace(n, 0)
    sections: dict[tuple[str, str], TensorSection] = {}
    for i, j in combinations(range(n + 1), 2):
        chart = atlas.chart(f"U{j}")
        comp: dict[SectionKey, RatFun] = {}
        z = {k: coordinate_name("z", k, j) for k in range(n + 1)}
        z_ij = RatFun.var(chart.even_coords, z[i])
        for k in range(n + 1):
            if k in (i, j):
                continue
            a, b = (i, k) if i < k else (k, i)
            sign = 1 if i < k else -1
            comp[(z[k], (z[a], z[b]))] = z_ij.inverse().scale(sign)
        sections[(f"U{i}", f"U{j}")] = TensorSection(chart, comp)
    return CechCochain1(atlas, sections)


def check_cech_cocycle(cochain: CechCochain1) -> VerificationReport:
    """Triple condition c_ij + c_jk = c_ik, compared in the frames of chart k."""
    report = VerificationReport("cech-cocycle")
    names = cochain.atlas.chart_names()
    for i, j, k in combinations(names, 3):
        pulled = pullback_tensor(
            cochain.section(i, j), cochain.atlas.transition(k, j)
        )
        report.add_equal(
            f"triple/{i},{j},{k}", pulled + cochain.section(j, k), cochain.section(i, k)
        )
    return report


def extract_obstruction(atlas: Atlas) -> CechCochain1:
    """Solve the degree-2 even corrections against the reduced Jacobian.

    For the pair (i, j) the transition expressing chart-i coordinates in
    chart-j ones is split into its reduced part plus theta-theta
    corrections; the corrections are written as a vector field applied to
    the reduced images, one product with BodyPullback's inverse body
    Jacobian per odd pair, and the result is recorded as a 2-form-valued
    field under the dz <-> theta matching of coordinate positions.
    """
    reduced = reduce_atlas(atlas)
    names = atlas.chart_names()
    sections: dict[tuple[str, str], TensorSection] = {}
    for i_name, j_name in combinations(names, 2):
        chart_i = atlas.chart(i_name)
        chart_j = atlas.chart(j_name)
        reduced_j = reduced.chart(j_name)
        t = atlas.transition(j_name, i_name)
        rhs_by_pair: dict[tuple[str, str], dict[str, RatFun]] = {}
        for kappa in chart_i.even_coords:
            for mon, coeff in t.images[kappa].components.items():
                if len(mon) == 2:
                    rhs_by_pair.setdefault(mon, {})[kappa] = coeff
                elif mon:
                    raise ValueError(
                        f"even image {kappa!r} has a degree-{len(mon)} correction; "
                        "not a degree-2 correction atlas"
                    )
        if not rhs_by_pair:
            sections[(i_name, j_name)] = TensorSection.zero(reduced_j)
            continue
        if len(chart_j.odd_coords) != len(chart_j.even_coords):
            raise ValueError(
                "degree-2 corrections need the odd coordinates to mirror the even ones"
            )
        even_of_odd = dict(zip(chart_j.odd_coords, chart_j.even_coords))
        inverse = BodyPullback(t).inverse
        col = {kappa: q for q, kappa in enumerate(chart_i.even_coords)}
        comp: dict[SectionKey, RatFun] = {}
        for mon in sorted(rhs_by_pair, key=lambda m: [chart_j.odd_position(x) for x in m]):
            rhs = rhs_by_pair[mon]
            a, b = even_of_odd[mon[0]], even_of_odd[mon[1]]
            for ell, row in zip(chart_j.even_coords, inverse):
                value = RatFun.sum([row[col[kappa]] * v for kappa, v in rhs.items()])
                if not value.is_zero:
                    comp[(ell, (a, b))] = value
        sections[(i_name, j_name)] = TensorSection(reduced_j, comp)
    return CechCochain1(reduced, sections)


def cochain_multiple(c1: CechCochain1, c2: CechCochain1) -> Optional[Fraction]:
    """The constant lambda with c1 = lambda * c2, or None if there is none.

    A zero c1 against a nonzero c2 reports lambda = 0; two zero cochains
    also report 0.  Non-proportional cochains report None.  The candidate
    lambda is the ratio at the first component of c2 in sorted order.
    """
    if set(c1.sections) != set(c2.sections):
        return None
    for key in sorted(c2.sections):
        section = c2.sections[key]
        if section.components:
            break
    else:
        return Fraction(0) if c1.is_zero() else None
    comp_key = min(section.components, key=section._key_order)
    other = c1.sections[key].components.get(comp_key)
    lam = Fraction(0) if other is None else (other / section.components[comp_key]).is_constant()
    if lam is not None and c1.equals(c2.scale(lam)):
        return lam
    return None


# -- homogeneous-coordinate lifting checks -------------------------------------


def _xvars(n: int) -> tuple[str, ...]:
    return tuple(f"X{i}" for i in range(n + 1))


def _xvar(n: int, i: int) -> RatFun:
    return RatFun.var(_xvars(n), f"X{i}")


@dataclass(frozen=True)
class HomogeneousSection:
    """Frame-indexed wedge sections with X-homogeneous coefficients.

    components maps (frame index k, wedge pair (a, b) with a < b) to a
    rational function of the homogeneous variables, required homogeneous of
    degree -2 (two twists of degree -1).  Frame index k labels d/dz_{k i}
    for the carrying chart i.
    """

    n: int
    chart_index: int
    components: dict[tuple[int, tuple[int, int]], RatFun]

    def __post_init__(self):
        clean = {}
        for (k, (a, b)), coeff in self.components.items():
            if a >= b:
                raise ValueError(f"wedge pair ({a}, {b}) not increasing")
            if k == self.chart_index:
                raise ValueError(f"frame index {k} collides with the chart index")
            if coeff.is_zero:
                continue
            if coeff.homogeneous_degree() != -2:
                raise ValueError(
                    f"coefficient of ({k}, ({a}, {b})) is not homogeneous of degree -2"
                )
            clean[(k, (a, b))] = coeff
        object.__setattr__(self, "components", clean)

    def __add__(self, other: HomogeneousSection) -> HomogeneousSection:
        if (self.n, self.chart_index) != (other.n, other.chart_index):
            raise ValueError("sections in different frames")
        out = sum_by_key(dict(self.components), other.components.items())
        return HomogeneousSection(self.n, self.chart_index, out)

    def __sub__(self, other: HomogeneousSection) -> HomogeneousSection:
        return self + HomogeneousSection(
            other.n, other.chart_index, {k: -c for k, c in other.components.items()}
        )

    def equals(self, other: HomogeneousSection) -> bool:
        if (self.n, self.chart_index) != (other.n, other.chart_index):
            return False
        return equal_by_key(self.components, other.components)

    def to_str(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for (k, (a, b)), coeff in sorted(self.components.items()):
            frame = coordinate_name("z", k, self.chart_index)
            parts.append(f"e{a}^e{b} (x) d/d{frame}: {coeff.to_str()}")
        return "; ".join(parts)


def euler_preimage_section(n: int, i: int) -> HomogeneousSection:
    """The chart-i preimage of the diagonal section: sum_k d/dz_ki (x) e_i^e_k / X_i^2."""
    xi2 = (_xvar(n, i) * _xvar(n, i)).inverse()
    comp = {}
    for k in range(n + 1):
        if k == i:
            continue
        a, b = (i, k) if i < k else (k, i)
        sign = 1 if i < k else -1
        comp[(k, (a, b))] = xi2.scale(sign)
    return HomogeneousSection(n, i, comp)


def rewrite_frames(section: HomogeneousSection, j: int) -> HomogeneousSection:
    """Express the tangent frames of chart i in those of chart j.

    Uses d/dz_ki = z_ij d/dz_kj for k != j and
    d/dz_ji = -z_ij sum_m z_mj d/dz_mj, with z_ab = X_a / X_b.
    """
    n = section.n
    i = section.chart_index
    if j == i:
        return section
    z_ij = _xvar(n, i) / _xvar(n, j)
    terms = []
    for (k, wedge), coeff in section.components.items():
        if k != j:
            terms.append(((k, wedge), coeff * z_ij))
        else:
            for m in range(n + 1):
                if m == j:
                    continue
                z_mj = _xvar(n, m) / _xvar(n, j)
                terms.append(((m, wedge), -(coeff * z_ij * z_mj)))
    return HomogeneousSection(n, j, sum_by_key({}, terms))


def expected_coboundary(n: int, i: int, j: int) -> HomogeneousSection:
    """Closed form of the pair section s_i - s_j in chart-j frames.

    Per k distinct from i and j, with prefactor 1/X_j^2:
    (z_kj / z_ij) e_j^e_i + (1/z_ij) e_i^e_k - e_j^e_k.  (The last sign is
    forced by the cancellation of the d/dz_ij component.)
    """
    xj2_inv = (_xvar(n, j) * _xvar(n, j)).inverse()
    terms = []

    def add(k: int, a: int, b: int, coeff: RatFun):
        if a == b:
            return
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        terms.append(((k, (a, b)), coeff.scale(sign)))

    for k in range(n + 1):
        if k in (i, j):
            continue
        z_kj_over_z_ij = _xvar(n, k) / _xvar(n, i)
        z_ij_inv = _xvar(n, j) / _xvar(n, i)
        add(k, j, i, xj2_inv * z_kj_over_z_ij)
        add(k, i, k, xj2_inv * z_ij_inv)
        add(k, j, k, -xj2_inv)
    return HomogeneousSection(n, j, sum_by_key({}, terms))


def euler_inclusion_vector(n: int, a: int, j: int) -> dict[int, RatFun]:
    """Image of dz_aj under the inclusion into the twisted free sheaf.

    Component a is 1/X_j, component j is -X_a/X_j^2, all others vanish.
    """
    xj = _xvar(n, j)
    return {a: xj.inverse(), j: -(_xvar(n, a) / (xj * xj))}


def wedge_inclusion(n: int, a: int, b: int, j: int) -> dict[tuple[int, int], RatFun]:
    """The 2-form dz_aj ^ dz_bj pushed into the wedge of the free sheaf."""
    va = euler_inclusion_vector(n, a, j)
    vb = euler_inclusion_vector(n, b, j)
    zero = RatFun.zero(_xvars(n))
    out: dict[tuple[int, int], RatFun] = {}
    support = sorted(set(va) | set(vb))
    for p, q in combinations(support, 2):
        coeff = va.get(p, zero) * vb.get(q, zero) - va.get(q, zero) * vb.get(p, zero)
        if not coeff.is_zero:
            out[(p, q)] = coeff
    return out


def lifted_obstruction_section(n: int, i: int, j: int) -> HomogeneousSection:
    """Image of the (i, j) obstruction section under the wedge inclusion."""
    z_ij_inv = _xvar(n, j) / _xvar(n, i)
    out = {
        (k, pair): coeff * z_ij_inv
        for k in range(n + 1)
        if k not in (i, j)
        for pair, coeff in wedge_inclusion(n, i, k, j).items()
    }
    return HomogeneousSection(n, j, out)


def alternating_quotient_wedge(
    n: int, wedge: Mapping[tuple[int, int], RatFun], i: int
) -> dict[int, RatFun]:
    """The alternating quotient map on a wedge element, in chart i.

    e_p ^ e_q goes to X_i (X_p dz_qi - X_q dz_pi); the output maps the dz
    index m to its coefficient.
    """
    xi = _xvar(n, i)
    terms = []
    for (p, q), coeff in wedge.items():
        if q != i:
            terms.append((q, coeff * xi * _xvar(n, p)))
        if p != i:
            terms.append((p, -(coeff * xi * _xvar(n, q))))
    return {m: c for m, c in sum_by_key({}, terms).items() if not c.is_zero}


def alternating_quotient_section(
    section: HomogeneousSection,
) -> dict[tuple[int, int], RatFun]:
    """Apply the alternating quotient framewise: (frame k, dz index m) -> coeff."""
    n = section.n
    i = section.chart_index
    by_frame: dict[int, dict[tuple[int, int], RatFun]] = {}
    for (k, wedge_key), coeff in section.components.items():
        by_frame.setdefault(k, {})[wedge_key] = coeff
    return {
        (k, m): coeff
        for k, wedge in by_frame.items()
        for m, coeff in alternating_quotient_wedge(n, wedge, i).items()
    }


def lifting_verify(n: int) -> VerificationReport:
    """The four exact identities behind the lift of the diagonal section.

    (a) the alternating quotient sends each chart's preimage section to the
        diagonal element sum_k d/dz_ki (x) dz_ki;
    (b) the pair differences s_i - s_j, rewritten in chart-j frames, equal
        their closed form;
    (c) the wedge inclusion of the obstruction sections reproduces exactly
        those differences;
    (d) the alternating quotient annihilates the included 2-form basis.
    """
    if not 2 <= n <= 3:
        raise ValueError("lifting checks are exposed for n = 2 and n = 3")
    report = VerificationReport("lifting")
    one = RatFun.one(_xvars(n))
    for i in range(n + 1):
        s_i = euler_preimage_section(n, i)
        image = alternating_quotient_section(s_i)
        expected = {(k, k): one for k in range(n + 1) if k != i}
        report.add_bool(
            f"euler-image/U{i}",
            equal_by_key(image, expected),
            f"alternating quotient gave {sorted(image)}",
        )
    for i, j in combinations(range(n + 1), 2):
        s_ij = rewrite_frames(euler_preimage_section(n, i), j) - euler_preimage_section(n, j)
        report.add_equal(f"coboundary-form/U{i},U{j}", s_ij, expected_coboundary(n, i, j))
        report.add_equal(f"lift-matches/U{i},U{j}", lifted_obstruction_section(n, i, j), s_ij)
    for i in range(n + 1):
        coords = [k for k in range(n + 1) if k != i]
        for a, b in combinations(coords, 2):
            image = alternating_quotient_wedge(n, wedge_inclusion(n, a, b, i), i)
            z_a, z_b = coordinate_name("z", a, i), coordinate_name("z", b, i)
            report.add_bool(
                f"exactness/U{i}/d{z_a}^d{z_b}",
                not image,
                f"nonzero image {sorted(image)}",
            )
    return report


# -- degree-bounded coboundary refutation --------------------------------------


def _monomials_up_to(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponents of total degree <= degree, by total degree, then lexicographically."""
    exps = [e for e in product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    return sorted(exps, key=lambda e: (sum(e), e))


def _clear_denominators(
    terms: list[tuple[int, RatFun]], rhs: RatFun
) -> tuple[list[tuple[int, Poly]], Poly]:
    """Scale the equation sum_t coeff_t * x_t = rhs to polynomial form.

    Every coefficient is multiplied by the product of the distinct
    denominators other than its own, which clears all fractions without
    polynomial division.
    """
    dens = [value.den for _, value in terms] + [rhs.den]
    distinct: list[Poly] = []
    for d in dens:
        if not any(d == s for s in distinct):
            distinct.append(d)

    def scaled(value: RatFun) -> Poly:
        result = value.num
        for d in distinct:
            if d != value.den:
                result = result * d
        return result

    return [(col, scaled(value)) for col, value in terms], scaled(rhs)


def coboundary_solve(
    cochain: CechCochain1, degree_bound: int
) -> Optional[dict[str, TensorSection]]:
    """A polynomial 0-cochain eta with eta_i - eta_j = c_ij, or None.

    Candidate coefficients are polynomials of total degree at most
    degree_bound on each chart; differences are compared in the frames of
    the later chart of each pair.  The assembled linear system over Q is
    solved exactly; free unknowns are fixed to zero.  A negative
    degree_bound raises ValueError, and so does a system of more than
    MAX_DENSE_ENTRIES entries, as soon as the rows of the chart pairs built
    so far exceed it.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    atlas = cochain.atlas
    names = atlas.chart_names()
    column: dict[tuple[str, SectionKey, tuple[int, ...]], int] = {}
    per_chart_keys: dict[str, list[SectionKey]] = {}
    monomials: dict[str, list[tuple[int, ...]]] = {}
    for name in names:
        evens = atlas.chart(name).even_coords
        per_chart_keys[name] = [(k, (a, b)) for k in evens for a, b in combinations(evens, 2)]
        monomials[name] = _monomials_up_to(len(evens), degree_bound)
        for key in per_chart_keys[name]:
            for mono in monomials[name]:
                column[(name, key, mono)] = len(column)

    rows: list[dict[int, Fraction]] = []
    rhs_values: list[Fraction] = []
    for i_name, j_name in combinations(names, 2):
        chart_i = atlas.chart(i_name)
        evens_j = atlas.chart(j_name).even_coords
        one = RatFun.one(chart_i.even_coords)
        body = BodyPullback(atlas.transition(j_name, i_name))
        mono_images = {
            mono: body(RatFun.from_poly(Poly(chart_i.even_coords, {mono: 1})))
            for mono in monomials[i_name]
        }
        terms = {out_key: [] for out_key in per_chart_keys[j_name]}
        for key in per_chart_keys[i_name]:
            unit = pullback_tensor(TensorSection(chart_i, {key: one}), body)
            for out_key, base in unit.components.items():
                terms[out_key].extend(
                    (column[(i_name, key, mono)], base * image)
                    for mono, image in mono_images.items()
                )
        target = cochain.section(i_name, j_name)
        for out_key, equation in terms.items():
            for mono in monomials[j_name]:
                monomial = RatFun.from_poly(Poly(evens_j, {mono: 1}))
                equation.append((column[(j_name, out_key, mono)], -monomial))
            rhs_rf = target.components.get(out_key, RatFun.zero(evens_j))
            poly_terms, rhs_poly = _clear_denominators(equation, rhs_rf)
            by_mono = {mono: {} for mono in rhs_poly.terms}
            for col, p in poly_terms:
                for mono, coeff in p.terms.items():
                    by_mono.setdefault(mono, {})[col] = coeff
            for mono in sorted(by_mono):
                rows.append(by_mono[mono])
                rhs_values.append(rhs_poly.terms.get(mono, Fraction(0)))
        if len(rows) * len(column) > MAX_DENSE_ENTRIES:
            raise ValueError(
                f"coboundary system of at least {len(rows)} x {len(column)} exceeds "
                f"{MAX_DENSE_ENTRIES} entries; lower the degree bound or n"
            )

    zero = Fraction(0)
    dense = []
    for row in rows:
        entries = [zero] * len(column)
        for col, value in row.items():
            entries[col] = value
        dense.append(entries)
    solution = solve_fraction_system(dense, rhs_values)
    if solution is None:
        return None
    out: dict[str, TensorSection] = {}
    for name in names:
        chart = atlas.chart(name)
        comp: dict[SectionKey, RatFun] = {}
        for key in per_chart_keys[name]:
            poly_terms = {}
            for mono in monomials[name]:
                value = solution[column[(name, key, mono)]]
                if value:
                    poly_terms[mono] = value
            if poly_terms:
                comp[key] = RatFun.from_poly(Poly(chart.even_coords, poly_terms))
        out[name] = TensorSection(chart, comp)
    return out


def coboundary_refute(cochain: CechCochain1, degree_bound: int) -> VerificationReport:
    """Report whether the cochain resists all bounded-degree coboundaries.

    A pass means no polynomial 0-cochain of total degree <= degree_bound
    splits it (finite evidence of nontriviality); finding one is a failing
    refutation and the witness exhibits it.
    """
    report = VerificationReport("coboundary-refutation")
    solution = coboundary_solve(cochain, degree_bound)
    if solution is None:
        report.add(
            f"refutation/degree-{degree_bound}",
            PASS,
            f"no polynomial 0-cochain of total degree <= {degree_bound} splits the cocycle",
        )
    else:
        parts = [f"{name}: {section.to_str()}" for name, section in sorted(solution.items())]
        report.add(
            f"refutation/degree-{degree_bound}",
            FAIL,
            "coboundary found: " + " | ".join(parts),
        )
    return report

