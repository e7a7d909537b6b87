"""Supercommutative functions on a chart: even/odd variables, Koszul signs.

A chart fixes an ordered tuple of even coordinate names and an ordered
tuple of odd (Grassmann) coordinate names.  A SuperFunction on a chart maps
odd monomials, stored as strictly increasing tuples of odd names in the
chart's declared order, to exact rational functions of the even
coordinates:

    f  =  sum_S  c_S(z) * theta_S,     theta_S = theta_{s1} ... theta_{sk}

Zero components are never stored.  Multiplication merges the odd monomials
and picks up the sign of the sorting permutation; a repeated odd name kills
the term (theta^2 = 0).  Each chart keeps a table of these merges, from
a pair of odd monomials to (sign, merged monomial), filled on first use;
a chart with q odd coordinates has at most 4^q entries, and the table is
not a dataclass field, so chart equality, hashing and repr ignore it.
Products and sums gather the terms that land on one odd monomial and add
them with rational.sum_by_key, one RatFun.sum per monomial; every other
sum here (the terms of a geometric series, of a parsed expression, of a
pulled-back function) is one SuperFunction.sum.
Even elements with an invertible body (nonzero degree-0 part) are
invertible through a finite geometric series, since the nilpotent
remainder has order at most floor(q/2)+1 in products.

check_image is the one rule for what a coordinate may map to, shared by
Pullback and atlas.TransitionMap.

The canonical text form round-trips exactly through parse_superfunction:
components are printed in increasing (length, position) order of their odd
monomial, e.g. "(z20)/(z10) + (1)/(z10^2)*[th10*th20]".

Values are immutable and every operation is pure; a chart's merge table
only caches what its coordinates determine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .rational import Poly, RatFun, equal_by_key, sum_by_key

OddMonomial = tuple[str, ...]


@dataclass(frozen=True)
class Chart:
    """Named chart with ordered even and odd coordinates."""

    name: str
    even_coords: tuple[str, ...]
    odd_coords: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "even_coords", tuple(self.even_coords))
        object.__setattr__(self, "odd_coords", tuple(self.odd_coords))
        names = self.even_coords + self.odd_coords
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names in chart {self.name!r}")
        # (m1, m2) -> (sign, merged monomial), filled by _merge_odd.  Not a
        # field, so equality, hashing and repr ignore it.
        object.__setattr__(self, "_odd_products", {})

    @property
    def coords(self) -> tuple[str, ...]:
        return self.even_coords + self.odd_coords

    def is_even(self, name: str) -> bool:
        if name in self.even_coords:
            return True
        if name in self.odd_coords:
            return False
        raise KeyError(f"unknown coordinate {name!r} on chart {self.name!r}")

    def odd_position(self, name: str) -> int:
        try:
            return self.odd_coords.index(name)
        except ValueError:
            raise KeyError(f"unknown odd coordinate {name!r} on chart {self.name!r}")


def _merge_odd(m1: OddMonomial, m2: OddMonomial, chart: Chart) -> tuple[int, OddMonomial]:
    """Concatenate two sorted odd monomials; return (sign, sorted monomial).

    The sign is that of the merging permutation; a repeated name returns
    sign 0 (the product vanishes).  Each pair is merged once per chart and
    read from the chart's table after that.
    """
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    products = chart._odd_products
    merged = products.get((m1, m2))
    if merged is None:
        merged = products[(m1, m2)] = _merge_positions(m1, m2, chart)
    return merged


def _merge_positions(m1: OddMonomial, m2: OddMonomial, chart: Chart) -> tuple[int, OddMonomial]:
    """_merge_odd for two nonempty monomials, without the table.

    Both are sorted, so the sign is that of the cross inversions: the pairs
    of a left and a right factor that the merge swaps.
    """
    pos = chart.odd_position
    left = [pos(x) for x in m1]
    right = [pos(x) for x in m2]
    if set(left) & set(right):
        return 0, ()
    inversions = sum(a > b for a in left for b in right)
    return (-1) ** inversions, tuple(chart.odd_coords[k] for k in sorted(left + right))


class SuperFunction:
    """Chart-local element of the structure sheaf."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Mapping[OddMonomial, RatFun]):
        clean: dict[OddMonomial, RatFun] = {}
        for mon, coeff in components.items():
            mon = tuple(mon)
            positions = [chart.odd_position(x) for x in mon]
            if positions != sorted(positions) or len(set(positions)) != len(positions):
                raise ValueError(f"odd monomial {mon} not strictly increasing")
            if coeff.variables != chart.even_coords:
                raise ValueError(
                    f"coefficient variables {coeff.variables} do not match chart "
                    f"{chart.name!r} even coordinates"
                )
            if not coeff.is_zero:
                clean[mon] = coeff
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", clean)

    @classmethod
    def _raw(cls, chart: Chart, components: dict[OddMonomial, RatFun]) -> SuperFunction:
        # Internal fast path: the monomials must already be sorted tuples and
        # the coefficients on the chart's even coordinates; only zeros go.
        self = object.__new__(cls)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(
            self, "components", {m: c for m, c in components.items() if not c.is_zero}
        )
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("SuperFunction is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> SuperFunction:
        return cls(chart, {})

    @classmethod
    def one(cls, chart: Chart) -> SuperFunction:
        return cls(chart, {(): RatFun.one(chart.even_coords)})

    @classmethod
    def const(cls, chart: Chart, value) -> SuperFunction:
        return cls(chart, {(): RatFun.const(chart.even_coords, value)})

    @classmethod
    def coordinate(cls, chart: Chart, name: str) -> SuperFunction:
        if chart.is_even(name):
            return cls(chart, {(): RatFun.var(chart.even_coords, name)})
        return cls(chart, {(name,): RatFun.one(chart.even_coords)})

    @classmethod
    def from_ratfun(cls, chart: Chart, value: RatFun) -> SuperFunction:
        return cls(chart, {(): value})

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.components

    @property
    def parity(self) -> str:
        """'even', 'odd' or 'inhomogeneous'; the zero function counts as even."""
        lengths = {len(m) % 2 for m in self.components}
        if not lengths:
            return "even"
        if lengths == {0}:
            return "even"
        if lengths == {1}:
            return "odd"
        return "inhomogeneous"

    def body(self) -> RatFun:
        """Degree-0 part, the image in the reduced structure sheaf."""
        body = self.components.get(())
        return RatFun.zero(self.chart.even_coords) if body is None else body

    def degree_part(self, degree: int) -> SuperFunction:
        """Sum of components whose odd monomial has exactly this length."""
        return SuperFunction(
            self.chart,
            {m: c for m, c in self.components.items() if len(m) == degree},
        )

    def degrees(self) -> set[int]:
        """Lengths of the odd monomials that carry a component."""
        return {len(m) for m in self.components}

    def is_constant(self) -> Optional[int | Fraction]:
        """The exact value (int when integral) if this is a constant, else None."""
        if self.is_zero:
            return 0
        if set(self.components) == {()}:
            return self.body().is_constant()
        return None

    def equals(self, other: SuperFunction) -> bool:
        self._require_same_chart(other)
        return equal_by_key(self.components, other.components)

    def _require_same_chart(self, other: SuperFunction) -> None:
        # Identity first: a dataclass comparison reads every field.
        if self.chart is not other.chart and self.chart != other.chart:
            raise ValueError(
                f"charts differ: {self.chart.name!r} vs {other.chart.name!r}"
            )

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def sum(chart: Chart, functions: Sequence[SuperFunction]) -> SuperFunction:
        """The sum of functions on chart, one RatFun.sum per odd monomial."""
        for f in functions:
            if f.chart is not chart and f.chart != chart:
                raise ValueError(f"charts differ: {chart.name!r} vs {f.chart.name!r}")
        if len(functions) < 2:
            return functions[0] if functions else SuperFunction.zero(chart)
        rest = [item for f in functions[1:] for item in f.components.items()]
        return SuperFunction._raw(chart, sum_by_key(dict(functions[0].components), rest))

    def __add__(self, other: SuperFunction) -> SuperFunction:
        return SuperFunction.sum(self.chart, (self, other))

    def __sub__(self, other: SuperFunction) -> SuperFunction:
        return self + (-other)

    def __neg__(self) -> SuperFunction:
        return SuperFunction._raw(self.chart, {m: -c for m, c in self.components.items()})

    def __mul__(self, other: SuperFunction) -> SuperFunction:
        self._require_same_chart(other)
        chart = self.chart
        terms = []
        for m1, c1 in self.components.items():
            for m2, c2 in other.components.items():
                sign, mon = _merge_odd(m1, m2, chart)
                if sign:
                    term = c1 * c2
                    terms.append((mon, term if sign > 0 else -term))
        return SuperFunction._raw(chart, sum_by_key({}, terms))

    def scale(self, value) -> SuperFunction:
        return SuperFunction(
            self.chart, {m: c.scale(value) for m, c in self.components.items()}
        )

    def __pow__(self, power: int) -> SuperFunction:
        if power < 0:
            return self.invert() ** (-power)
        result = SuperFunction.one(self.chart)
        for _ in range(power):
            result = result * self
        return result

    def invert(self) -> SuperFunction:
        """Exact inverse of an even element with invertible body.

        With b the body and n the nilpotent remainder, the inverse is
        b^-1 * sum_k (-n/b)^k; the series stops at k = floor(q/2) because
        every component of n has odd degree >= 2.
        """
        if self.parity != "even":
            raise ValueError("only even superfunctions are invertible")
        b = self.body()
        if b.is_zero:
            raise ZeroDivisionError("superfunction with nilpotent (zero-body) part")
        inv_body = SuperFunction.from_ratfun(self.chart, b.inverse())
        nil = SuperFunction._raw(self.chart, {m: c for m, c in self.components.items() if m})
        if nil.is_zero:
            return inv_body
        x = nil * inv_body
        terms = [SuperFunction.one(self.chart)]
        for _ in range(len(self.chart.odd_coords) // 2):
            power = -(terms[-1] * x)
            if power.is_zero:
                break
            terms.append(power)
        return SuperFunction.sum(self.chart, terms) * inv_body

    def derive(self, name: str) -> SuperFunction:
        """Partial derivative; odd variables use the left convention.

        For an odd name a and monomial S containing a at 0-based position p,
        the term c * theta_S contributes (-1)^p c * theta_(S minus a).
        """
        if self.chart.is_even(name):
            return SuperFunction(
                self.chart,
                {m: c.derivative(name) for m, c in self.components.items()},
            )
        out: dict[OddMonomial, RatFun] = {}
        for mon, coeff in self.components.items():
            if name not in mon:
                continue
            p = mon.index(name)
            # Removing one name from distinct monomials gives distinct monomials.
            out[mon[:p] + mon[p + 1 :]] = coeff if p % 2 == 0 else -coeff
        return SuperFunction._raw(self.chart, out)

    # -- printing -------------------------------------------------------------

    def _sort_key(self, mon: OddMonomial):
        return (len(mon), tuple(self.chart.odd_position(x) for x in mon))

    def to_str(self) -> str:
        if not self.components:
            return "(0)"
        parts = []
        for mon in sorted(self.components, key=self._sort_key):
            coeff = self.components[mon].to_str()
            if mon:
                parts.append(f"{coeff}*[{'*'.join(mon)}]")
            else:
                parts.append(coeff)
        return " + ".join(parts)

    def __repr__(self):
        return f"SuperFunction({self.chart.name!r}, {self.to_str()})"


def check_image(source: Chart, name: str, image: SuperFunction) -> None:
    """Refuse an image that coordinate name of source cannot map to.

    An even coordinate needs an even image with nonzero body, so that
    denominators stay invertible; an odd coordinate needs an odd or zero
    image.
    """
    if source.is_even(name):
        if image.parity != "even":
            raise ValueError(f"even coordinate {name!r} mapped to non-even image")
        if image.body().is_zero:
            raise ValueError(f"even coordinate {name!r} mapped to zero-body image")
    elif not image.is_zero and image.parity != "odd":
        raise ValueError(f"odd coordinate {name!r} mapped to non-odd image")


class Pullback:
    """The ring homomorphism sending each coordinate of a chart to its image.

    Every image must pass check_image, and all images must share one
    chart.  Odd monomials map to the ordered product of the images.

    The assignment is checked once, when the pullback is built.  The powers
    of the images, the images of numerator and denominator polynomials, the
    inverted denominator images and the images of odd monomials are cached
    on the object, so every function pulled back through it shares them;
    drop the object to drop the caches.  An odd monomial's image is the
    cached image of its prefix times the image of its last name, so each
    distinct monomial costs one product and each component of a pulled-back
    function one more.
    """

    def __init__(self, source: Chart, assignment: Mapping[str, SuperFunction]):
        target = None
        for img in assignment.values():
            if target is None:
                target = img.chart
            elif img.chart != target:
                raise ValueError("substitution images live on different charts")
        if target is None:
            raise ValueError("empty substitution")
        for name, img in assignment.items():
            check_image(source, name, img)
        self.source = source
        self.target = target
        self.assignment = assignment
        self._powers: dict[str, list[SuperFunction]] = {}
        self._poly_images: dict[Poly, SuperFunction] = {}
        self._inverses: dict[Poly, SuperFunction] = {}
        self._odd_images: dict[OddMonomial, SuperFunction] = {}

    def _image(self, name: str) -> SuperFunction:
        try:
            return self.assignment[name]
        except KeyError:
            raise ValueError(f"no image for coordinate {name!r}") from None

    def _poly_image(self, p: Poly) -> SuperFunction:
        cached = self._poly_images.get(p)
        if cached is not None:
            return cached
        target = self.target
        terms = []
        for exps, coeff in p.terms.items():
            term = SuperFunction.const(target, coeff)
            for v, e in zip(p.variables, exps):
                if e == 0:
                    continue
                cache = self._powers.get(v)
                if cache is None:
                    cache = self._powers[v] = [SuperFunction.one(target)]
                while len(cache) <= e:
                    cache.append(cache[-1] * self._image(v))
                term = term * cache[e]
            terms.append(term)
        result = self._poly_images[p] = SuperFunction.sum(target, terms)
        return result

    def _den_inverse(self, p: Poly) -> SuperFunction:
        cached = self._inverses.get(p)
        if cached is None:
            cached = self._inverses[p] = self._poly_image(p).invert()
        return cached

    def _odd_image(self, mon: OddMonomial) -> SuperFunction:
        # A zero image is a real value here, so a miss is only ever None.
        cached = self._odd_images.get(mon)
        if cached is None:
            cached = self._image(mon[-1])
            if len(mon) > 1:
                cached = self._odd_image(mon[:-1]) * cached
            self._odd_images[mon] = cached
        return cached

    def __call__(self, f: SuperFunction) -> SuperFunction:
        if f.chart is not self.source and f.chart != self.source:
            raise ValueError(
                f"pullback from chart {self.source.name!r} applied to a function "
                f"on {f.chart.name!r}"
            )
        terms = []
        for mon, coeff in f.components.items():
            term = self._poly_image(coeff.num) * self._den_inverse(coeff.den)
            if mon:
                term = term * self._odd_image(mon)
            terms.append(term)
        return SuperFunction.sum(self.target, terms)


class Renaming:
    """The ring isomorphism from the functions on source to those on target
    that renames each coordinate x of source to the coordinate names[x].

    names must send the even coordinates of source one-to-one onto those of
    target and the odd ones onto the odd ones; ValueError otherwise.  A
    coefficient moves its exponents to target's variable order
    (RatFun.renamed), and an odd monomial is re-sorted in target's order
    with the sign of the sort.  No product, gcd or Pullback runs.  The
    attribute names keeps the mapping.
    """

    def __init__(self, source: Chart, target: Chart, names: Mapping[str, str]):
        if set(names) != set(source.coords) or any(
            sorted(names[x] for x in mine) != sorted(theirs)
            for mine, theirs in (
                (source.even_coords, target.even_coords),
                (source.odd_coords, target.odd_coords),
            )
        ):
            raise ValueError(
                f"the renaming of {source.name!r} onto {target.name!r} is not a "
                "parity-preserving bijection of their coordinates"
            )
        back = {y: x for x, y in names.items()}
        self.source = source
        self.target = target
        self.names = names
        self._order = tuple(source.even_coords.index(back[y]) for y in target.even_coords)
        self._odd_positions = {x: target.odd_position(names[x]) for x in source.odd_coords}

    def __call__(self, f: SuperFunction) -> SuperFunction:
        if f.chart is not self.source and f.chart != self.source:
            raise ValueError(
                f"renaming of chart {self.source.name!r} applied to a function "
                f"on {f.chart.name!r}"
            )
        target = self.target
        components: dict[OddMonomial, RatFun] = {}
        for mon, coeff in f.components.items():
            positions = [self._odd_positions[x] for x in mon]
            inversions = sum(a > b for i, a in enumerate(positions) for b in positions[i + 1 :])
            coeff = coeff.renamed(target.even_coords, self._order)
            mon = tuple(target.odd_coords[k] for k in sorted(positions))
            components[mon] = -coeff if inversions % 2 else coeff
        return SuperFunction._raw(target, components)


def substitute(
    f: SuperFunction, assignment: Mapping[str, SuperFunction]
) -> SuperFunction:
    """Pull f back through a one-off Pullback; see there for the contract."""
    return Pullback(f.chart, assignment)(f)


# -- canonical text form -------------------------------------------------------

_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S")


def parse_superfunction(text: str, chart: Chart) -> SuperFunction:
    """Read text written in the canonical form back into a SuperFunction.

    One grammar, each rule evaluated in the chart's superfunction ring:

        sum     := product (('+'|'-') product)*
        product := factor (('*'|'/') factor)*
        factor  := ('+'|'-') factor | atom ['^' int]
        atom    := int | coordinate | '(' sum ')' | '[' sum ']'

    A quotient a/b is a * b.invert(), so b must be even with a nonzero body
    (ValueError, ZeroDivisionError otherwise).  Brackets hold odd monomials;
    their product picks up its Koszul sign.  The printer's output reads back
    with the same monomials and the same num and den polys, since RatFun
    keeps one normal form.  The grammar accepts more than the printer emits
    ("z10*z20" without parentheses, for one), on purpose: no CLI command and
    no outside input reaches the parser, only text that the program and its
    tests write.  Malformed text and unknown names raise ValueError.
    """
    tokens = _TOKEN_RE.findall(text) + [""]
    pos = 0

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected or 'end'!r}, found {tok or 'end'!r}")
        pos += 1
        return tok

    def sum_() -> SuperFunction:
        terms = [product()]
        while tokens[pos] in ("+", "-"):
            terms.append(-product() if take() == "-" else product())
        return SuperFunction.sum(chart, terms)

    def product() -> SuperFunction:
        value = factor()
        while tokens[pos] in ("*", "/"):
            value = value * factor() if take() == "*" else value * factor().invert()
        return value

    def factor() -> SuperFunction:
        if tokens[pos] in ("+", "-"):
            return -factor() if take() == "-" else factor()
        value = atom()
        if tokens[pos] == "^":
            take()
            power = take()
            if not (power.isascii() and power.isdigit()):
                raise ValueError(f"expected an integer exponent, found {power!r}")
            value = value ** int(power)
        return value

    def atom() -> SuperFunction:
        tok = take()
        if tok.isascii() and tok.isdigit():
            return SuperFunction.const(chart, int(tok))
        if tok in chart.coords:
            return SuperFunction.coordinate(chart, tok)
        if tok in ("(", "["):
            value = sum_()
            take(")" if tok == "(" else "]")
            return value
        if tok.isidentifier():
            raise ValueError(f"unknown coordinate {tok!r} on chart {chart.name!r}")
        raise ValueError(f"unexpected {tok or 'end'!r}")

    value = sum_()
    take("")
    return value
