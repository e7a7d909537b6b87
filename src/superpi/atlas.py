"""Charts glued by substitution homomorphisms, and the checks run on them.

A TransitionMap with source chart S and target chart T assigns to every
coordinate of T a superfunction on S; composition is substitution.  An
Atlas stores one transition for every ordered chart pair, identity on the
diagonal.

The super Jacobian of a transition has rows indexed by target coordinates
(even first) and columns by source coordinates, entry (r, c) the left
derivative of the image of r with respect to c.  With this layout and left
derivatives the chain rule crosses the factors:

    Jac(T2 o T1)[r, c]  =  sum_m  Jac(T1)[m, c] * subst(Jac(T2))[r, m]

(the source-side factor multiplies from the left; the commonly quoted
matrix product subst(Jac(T2)) * Jac(T1) acquires wrong Koszul signs on the
parity-diagonal blocks).  The Berezinian checks never rely on the wrong
one; the tests check the correct contraction with the oracle
`jacobian_chain_product` of tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Mapping, Sequence

from .report import PASS, UNDETERMINED, VerificationReport, mismatch
from .superalgebra import Chart, Pullback, Renaming, SuperFunction, check_image
from .supermatrix import SuperMatrix, berezinian

# A candidate symmetry of an atlas: each chart name maps to the name of its
# image chart and to the renaming of its coordinates onto that chart's.
Symmetry = dict[str, tuple[str, dict[str, str]]]

# A point of an orbit walk (orbits): a tuple or a frozenset of chart names.
Point = tuple[str, ...] | frozenset[str]

# A step of an orbit walk: the point reached, the point it is reached from,
# and the renamings of the generator that carries one to the other.
OrbitStep = tuple[Point, Point, Mapping[str, Renaming]]


@dataclass(frozen=True)
class TransitionMap:
    source: Chart
    target: Chart
    images: dict[str, SuperFunction]

    def __post_init__(self):
        for name in self.target.coords:
            if name not in self.images:
                raise ValueError(f"transition misses target coordinate {name!r}")
        for name, img in self.images.items():
            if img.chart != self.source:
                raise ValueError(f"image of {name!r} does not live on the source chart")
            check_image(self.target, name, img)


def identity_transition(chart: Chart) -> TransitionMap:
    return TransitionMap(
        chart,
        chart,
        {name: SuperFunction.coordinate(chart, name) for name in chart.coords},
    )


def compose(
    t2: TransitionMap, t1: TransitionMap, pull_back: Pullback | None = None
) -> TransitionMap:
    """The transition first applying t1 and then t2 (t1.target = t2.source).

    Every image of t2 is pulled back through one Pullback of t1, so they
    share its caches.  A caller composing several transitions after the
    same t1 may pass a Pullback built from t1.images to share them across
    the calls; without one, a fresh Pullback is built and dropped on return.
    """
    if t2.source != t1.target:
        raise ValueError(
            f"cannot compose: {t2.source.name!r} is not {t1.target.name!r}"
        )
    if pull_back is None:
        pull_back = Pullback(t1.target, t1.images)
    elif pull_back.assignment != t1.images:
        raise ValueError("the pullback was not built from the images of t1")
    images = {name: pull_back(img) for name, img in t2.images.items()}
    return TransitionMap(t1.source, t2.target, images)


def transition_mismatch(a: TransitionMap, b: TransitionMap) -> str:
    """The empty string when a and b are equal, else a witness of the first difference.

    The witness of a differing coordinate is its image under a minus its
    image under b.
    """
    if (a.source, a.target) != (b.source, b.target):
        return f"charts {a.source.name}->{a.target.name} vs {b.source.name}->{b.target.name}"
    for name in a.target.coords:
        witness = mismatch(a.images[name], b.images[name])
        if witness:
            return f"coordinate {name}: {witness}"
    return ""


def rename_transition(t: TransitionMap, source: Renaming, target: Renaming) -> TransitionMap:
    """R_J o t o R_I^-1: the transition t from I to J carried by the
    renamings R_I = source, of I onto s(I), and R_J = target, of J onto s(J).

    It runs from s(I) to s(J) and maps R_J(y) to R_I of the image of y under
    t, keyed in the order of t.images.  No product, gcd or Pullback runs.
    check_equivariant compares it with the stored transition; the cell
    builders store it.
    """
    if t.target is not target.source and t.target != target.source:
        raise ValueError(
            f"the renaming of {target.source.name!r} cannot carry a transition "
            f"into {t.target.name!r}"
        )
    images = {target.names[y]: source(image) for y, image in t.images.items()}
    return TransitionMap(source.target, target.target, images)


class Atlas:
    """Charts plus one transition per ordered chart pair.

    symmetries holds the generators of a group of candidate symmetries, as
    the builder that knows them supplies them; check_equivariant decides
    whether they are symmetries, and nothing else trusts them.
    """

    def __init__(
        self,
        charts: list[Chart],
        transitions: dict[tuple[str, str], TransitionMap],
        symmetries: Sequence[Symmetry] = (),
    ):
        names = [c.name for c in charts]
        if len(set(names)) != len(names):
            raise ValueError("duplicate chart names in atlas")
        by_name = {c.name: c for c in charts}
        for (i, j), t in transitions.items():
            if t.source != by_name[i] or t.target != by_name[j]:
                raise ValueError(f"transition ({i}, {j}) has inconsistent charts")
        for i in names:
            key = (i, i)
            if key not in transitions:
                transitions = dict(transitions)
                transitions[key] = identity_transition(by_name[i])
        for i, j in list(transitions):
            if (j, i) not in transitions:
                raise ValueError(f"transition ({j}, {i}) missing for stored ({i}, {j})")
        self.charts = list(charts)
        self.transitions = dict(transitions)
        self.symmetries = tuple(symmetries)
        self._verified: list[dict[str, Renaming]] | None = None

    def chart(self, name: str) -> Chart:
        for c in self.charts:
            if c.name == name:
                return c
        raise KeyError(name)

    def transition(self, source: str, target: str) -> TransitionMap:
        return self.transitions[(source, target)]

    def chart_names(self) -> list[str]:
        return [c.name for c in self.charts]

    def pairs(self) -> list[tuple[str, str]]:
        names = self.chart_names()
        return [(i, j) for i in names for j in names if i != j]

    def verified_renamings(self) -> list[dict[str, Renaming]]:
        """The renamings of each symmetry that moves a chart, keyed by chart
        name, when check_equivariant accepts those symmetries; [] when there
        are none or it refuses them.

        Symmetries that move no chart leave every orbit as it is, so they
        do not count.  check_equivariant runs on the first call only; later
        calls read its verdict.
        """
        if self._verified is None:
            moving = [s for s in self.symmetries if any(i != image for i, (image, _) in s.items())]
            accepted = bool(moving) and not check_equivariant(self, moving)
            charts = {c.name: c for c in self.charts}
            self._verified = [symmetry_renamings(charts, s) for s in moving] if accepted else []
        return self._verified


def atlas_mismatch(a: Atlas, b: Atlas) -> str:
    """The empty string when a and b are equal, else a witness of the first difference.

    Equal atlases have the same charts in the same order and equal
    transitions on the same pairs; a differing transition is named by its
    pair and its transition_mismatch witness.
    """
    if a.charts != b.charts:
        return f"charts differ: {','.join(a.chart_names())} vs {','.join(b.chart_names())}"
    if a.transitions.keys() != b.transitions.keys():
        return "the atlases glue different chart pairs"
    for (i, j), t in a.transitions.items():
        witness = transition_mismatch(t, b.transitions[(i, j)])
        if witness:
            return f"transition {i}->{j}: {witness}"
    return ""


def check_equivariant(atlas: Atlas, symmetries: Sequence[Symmetry]) -> str:
    """The empty string when every candidate in symmetries is a symmetry of
    atlas, else the witness of the first failure.

    A candidate s must permute the charts and rename the coordinates of each
    chart I onto those of s(I) with parities kept (a Renaming R_I).  It is a
    symmetry when T_{s(I)s(J)} maps R_J(y) to R_I(T_IJ(y)) for every ordered
    pair (I, J) and every coordinate y of J, that is when rename_transition
    carries T_IJ onto T_{s(I)s(J)}, compared exactly.  The witness
    names the candidate by its position, then the pair and the coordinate y
    with the difference renamed image - stored image.
    """
    names = sorted(atlas.chart_names())
    charts = {c.name: c for c in atlas.charts}
    for number, symmetry in enumerate(symmetries):
        if sorted(symmetry) != names or sorted(image for image, _ in symmetry.values()) != names:
            return f"symmetry {number} does not permute the charts"
        try:
            renamings = symmetry_renamings(charts, symmetry)
        except ValueError as error:
            return f"symmetry {number}: {error}"
        for i, j in atlas.pairs():
            t = atlas.transition(i, j)
            moved = rename_transition(t, renamings[i], renamings[j])
            stored = atlas.transition(moved.source.name, moved.target.name)
            for name in t.target.coords:
                y = renamings[j].names[name]
                witness = mismatch(moved.images[y], stored.images[y])
                if witness:
                    return f"symmetry {number}, pair {i}->{j}, coordinate {name}: {witness}"
    return ""


def symmetry_renamings(charts: Mapping[str, Chart], symmetry: Symmetry) -> dict[str, Renaming]:
    """The Renaming of each chart by symmetry onto its image chart, by name,
    with charts looked up by name; ValueError when one is not a
    parity-preserving bijection."""
    return {
        i: Renaming(charts[i], charts[image], coords) for i, (image, coords) in symmetry.items()
    }


def orbits(
    points: Sequence[Point], renamings: Sequence[Mapping[str, Renaming]]
) -> list[tuple[Point, list[OrbitStep]]]:
    """The orbits of points under the group the generators in renamings
    generate, each as (seed, steps).

    Each generator maps every chart name to the Renaming of that chart onto
    its image, and carries a point to the point of the same type that holds
    the images of its names: (i, j) to (renaming[i].target.name,
    renaming[j].target.name).  The seed is the orbit's first point in points
    order, and each step (point, parent, renaming) reaches a new point of
    the orbit from the seed or an earlier step.  Without generators every
    point is an orbit of its own.
    """
    seen: set[Point] = set()
    found = []
    for seed in points:
        if seed in seen:
            continue
        seen.add(seed)
        steps: list[OrbitStep] = []
        walk = [seed]
        while walk:
            parent = walk.pop()
            for renaming in renamings:
                point = type(parent)(renaming[c].target.name for c in parent)
                if point not in seen:
                    seen.add(point)
                    walk.append(point)
                    steps.append((point, parent, renaming))
        found.append((seed, steps))
    return found


def check_cocycle(atlas: Atlas) -> VerificationReport:
    """Round-trip and triple-overlap consistency of every transition.

    Verifies T_ji o T_ij = id for all ordered pairs and the composition
    identity on triples: all six orderings when the atlas has at most four
    charts, the increasing and decreasing ones otherwise.  The report
    lists the checks in that order.

    When every chart has the same dimension (n|m) and the atlas carries
    symmetries that move a chart and check_equivariant accepts them
    (Atlas.verified_renamings), only the first check, in report order, of
    each orbit of chart pairs and of chart triples under the group they
    generate is composed at first (orbits).  When those all pass, every
    other check passes by the lemma below (part 4); its witness is "",
    which is what composing it would print.  Otherwise, or when one of
    those fails, every other check is composed too.  Each check is
    composed at most once, so a failing atlas gets the same report and
    witnesses as when every check is composed.

    Lemma.  Write Phi_ij: A_j -> A_i for the pullback of T_ij, where
    A = Q(x) (x) Lambda[theta].  A check passes when its two sides agree
    on the coordinates, hence as homomorphisms.
      1. One round trip gives both.  If i->j->i passes, Phi_ij o Phi_ji
         is the identity on the coordinates of i.  On bodies, Phi_ij takes
         the bodies of the images of T_ji to the n coordinates x of i.
         With n even coordinates on j too, its body map has no kernel, so
         Phi_ij is defined on all of A_j; the bodies of the images of T_ji
         are algebraically independent, so Phi_ji is defined on all of
         A_i; and Phi_ij o Phi_ji = id on A_i.  So Phi_ij is onto, and its
         body map, an onto field homomorphism, is an isomorphism.  Phi_ij
         maps the nilpotent ideal J_j onto J_i, and each graded piece
         J^k/J^(k+1) is Lambda^k over the body field; with equal odd
         dimensions a semilinear surjection between these pieces is
         bijective.  So Phi_ij is an isomorphism, Phi_ji = Phi_ij^-1, and
         j->i->j passes.
      2. One ordering gives all six.  With every Phi invertible and
         Phi_ba = Phi_ab^-1, Phi_ij Phi_jk = Phi_ik gives every other
         ordering of {i, j, k} by inverting both sides and by
         associativity.
      3. Equal dimensions are needed.  For charts A = (a|) and B = (b, c|)
         with T_AB: b, c -> a and T_BA: a -> b, A->B->A passes while
         B->A->B fails with "coordinate c: difference (b - c)".
      4. A symmetry carries every check along its orbit.  A symmetry s
         gives ring isomorphisms R_i: A_i -> A_s(i), and check_equivariant
         says Phi_s(i)s(j) R_j = R_i Phi_ij on the coordinates of j, hence
         Phi_s(i)s(j) = R_i Phi_ij R_j^-1.  For a product s t, t applied
         first, the renamings R^s_t(i) o R^t_i satisfy the same identity,
         so it holds for every g in the group G that the symmetries
         generate: G permutes finitely many charts, so every g is such a
         product.  Conjugating by R turns
         Phi_ij Phi_ji = id into Phi_gi,gj Phi_gj,gi = id and
         Phi_ij Phi_jk = Phi_ik into the same identity at (gi, gj, gk).
         So when the first check of an orbit of pairs passes, some ordering
         of every pair in the orbit passes, and part 1 gives the other;
         with every round trip passing, the same holds for triples with
         part 2.
    """
    names = atlas.chart_names()
    # (identifier, first leg, second leg, expected transition or None)
    checks = [(f"roundtrip/{i}->{j}->{i}", (i, j), (j, i), None) for i, j in atlas.pairs()]
    for combo in combinations(names, 3):
        orderings = (
            list(permutations(combo))
            if len(names) <= 4
            else [combo, tuple(reversed(combo))]
        )
        checks += [(f"triple/{i},{j},{k}", (i, j), (j, k), (i, k)) for i, j, k in orderings]
    equal = len({(len(c.even_coords), len(c.odd_coords)) for c in atlas.charts}) == 1
    representatives = _orbit_representatives(atlas, checks) if equal else None
    witnesses = {} if representatives is None else _compose_checks(atlas, representatives)
    if representatives is None or any(witnesses.values()):
        rest = [check for check in checks if check[0] not in witnesses]
        witnesses.update(_compose_checks(atlas, rest))
    report = VerificationReport("cocycle")
    for identifier, *_ in checks:
        report.add_witness(identifier, witnesses.get(identifier, ""))
    return report


def _orbit_representatives(atlas: Atlas, checks: list[tuple]) -> list[tuple] | None:
    """The first check of each orbit of chart sets under the atlas's
    verified symmetries (Atlas.verified_renamings), in check order; None
    when it has none.
    """
    renamings = atlas.verified_renamings()
    if not renamings:
        return None
    first: dict[frozenset[str], tuple] = {}
    for check in checks:
        first.setdefault(frozenset(check[1] + check[2]), check)
    return [first[seed] for seed, _ in orbits(list(first), renamings)]


def _compose_checks(atlas: Atlas, checks: list[tuple]) -> dict[str, str]:
    """The witness of each check of check_cocycle, by identifier.

    Each check composes a second leg after a first leg T_ij.  The checks
    run grouped by first leg, and one Pullback of T_ij serves its whole
    group, so the images of polynomials and odd monomials are pulled back
    once per group; the Pullback is dropped before the next group starts.
    """
    by_first: dict[tuple[str, str], list[tuple]] = {}
    for check in checks:
        by_first.setdefault(check[1], []).append(check)
    witnesses: dict[str, str] = {}
    for first, group in by_first.items():
        t1 = atlas.transition(*first)
        pull_back = Pullback(t1.target, t1.images)
        for identifier, _, second, expected in group:
            threaded = compose(atlas.transition(*second), t1, pull_back)
            # Round trips report threaded - identity, triples direct - threaded.
            witnesses[identifier] = (
                transition_mismatch(threaded, identity_transition(t1.source))
                if expected is None
                else transition_mismatch(atlas.transition(*expected), threaded)
            )
        del pull_back
    return witnesses


def super_jacobian(t: TransitionMap) -> SuperMatrix:
    """Left-derivative Jacobian, rows = target coords, columns = source coords."""
    rows = []
    row_names = list(t.target.even_coords) + list(t.target.odd_coords)
    col_names = list(t.source.even_coords) + list(t.source.odd_coords)
    for r in row_names:
        image = t.images[r]
        rows.append([image.derive(c) for c in col_names])
    return SuperMatrix(
        t.source,
        (len(t.target.even_coords), len(t.target.odd_coords)),
        (len(t.source.even_coords), len(t.source.odd_coords)),
        rows,
    )


def berezinian_class(value: SuperFunction) -> tuple[str, str]:
    """Classify a Berezinian as identically 1, a nonzero constant, or neither."""
    constant = value.is_constant()
    if constant is None or constant == 0:
        return "nonconstant", f"Ber = {value.to_str()}"
    if constant == 1:
        return "one", "Ber = 1"
    return "constant", f"Ber = {constant}"


def check_berezinian_trivial(atlas: Atlas) -> VerificationReport:
    """Berezinians of all pair Jacobians, with a triviality verdict.

    When the atlas's symmetries are verified (Atlas.verified_renamings),
    Ber is computed on the first pair of each orbit of ordered pairs
    (orbits), and each other pair of the orbit, reached from (i, j)
    by a generator s with renamings R, gets

        Ber(T_s(i)s(j)) = sign(R_i) * sign(R_j) * R_i(Ber(T_ij)).

    Otherwise every pair is computed.  Either way each pair is reported
    with the class and witness that computing it gives.

    Lemma.  Regard the renaming R_i as the transition from i to s(i) that
    sends each coordinate to its new name.  Its Jacobian is a permutation
    matrix in each parity block, so its Berezinian is the constant
    Renaming.sign, and so is that of R_i^-1.  check_equivariant gives
    T_s(i)s(j) = R_j o T_ij o R_i^-1.  The chain rule of the module
    docstring is a product of supermatrices and Ber is multiplicative, so
    Ber(T_s(i)s(j)) is Ber(R_i^-1), times Ber(T_ij) pulled back by R_i^-1,
    times Ber(R_j) pulled back, which is itself.  Pulling a function on i
    back by R_i^-1 renames its coordinates: it is R_i applied to it.  A
    product of generators is covered step by step along the walk.  The
    sign is needed: on P^{2|3} the generators that reorder the odd
    coordinates flip it.

    Verdict levels: "trivial (exact)" when every Berezinian is 1,
    "trivial (constant cocycle)" when all are nonzero constants, otherwise
    "undetermined".  On a glued atlas constant Berezinians are
    Ber_jk = c_k/c_j with c_j = Ber_0j, the coboundary of the 0-cochain
    (c_j) with c_0 = 1, so rescaling the frames on U_j by c_j makes every
    Berezinian 1.
    """
    values: dict[tuple[str, str], SuperFunction] = {}
    for seed, steps in orbits(atlas.pairs(), atlas.verified_renamings()):
        values[seed] = berezinian(super_jacobian(atlas.transition(*seed)))
        for pair, (i, j), renaming in steps:
            renamed = renaming[i](values[(i, j)])
            values[pair] = renamed if renaming[i].sign == renaming[j].sign else -renamed
    report = VerificationReport("berezinian")
    kinds = []
    for i, j in atlas.pairs():
        kind, witness = berezinian_class(values[(i, j)])
        kinds.append(kind)
        status = PASS if kind in ("one", "constant") else UNDETERMINED
        report.add(f"pair/{i}->{j}", status, witness)
    if all(k == "one" for k in kinds):
        verdict = "trivial (exact)"
        status = PASS
    elif all(k in ("one", "constant") for k in kinds):
        verdict = "trivial (constant cocycle)"
        status = PASS
    else:
        verdict = "undetermined"
        status = UNDETERMINED
    report.add("verdict", status, verdict)
    return report


def correction_degrees(atlas: Atlas) -> tuple[set[int], set[int]]:
    """The census (even, odd) of nilpotent correction degrees of the atlas.

    Over every stored transition (identities add nothing), `even` is the
    set of degrees > 0 of the even images and `odd` the set of degrees
    other than 1 of the odd images.  The atlas is projected when `even` is
    empty and split when both are empty.
    """
    even: set[int] = set()
    odd: set[int] = set()
    for i, j in atlas.pairs():
        t = atlas.transition(i, j)
        for name in t.target.even_coords:
            even |= t.images[name].degrees()
        for name in t.target.odd_coords:
            odd |= t.images[name].degrees()
    return even - {0}, odd - {1}
