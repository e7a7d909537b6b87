"""Exact multivariate polynomial and rational-function arithmetic over Q.

A polynomial is a mapping from exponent tuples to nonzero rational
coefficients, together with an ordered tuple of variable names.  The
exponent tuple has one entry per variable, so two polynomials can be
combined only when they carry the same variable tuple (this is the
"mismatched variable sets" error surface of the contracts below).

  x0^2*x1 + 3/2   ->   Poly(("x0", "x1"), {(2, 1): 1, (0, 0): Fraction(3, 2)})

The zero polynomial stores no terms.  A coefficient is an int when it is
integral and a Fraction (lowest terms, positive denominator) only when it
is not.  Every RatFun part is integer-primitive, so the arithmetic inner
loops run on plain ints and rationals appear only at the edges: parsed
input, scaling by a non-integral constant and the linear solvers.  Floats
are rejected; int and Fraction are equal and hash alike, so the choice of
representation never shows in equality, hashing or printing.

A rational function is a pair num/den of polynomials with den != 0,
normalised at construction to keep representatives small and deterministic:

  * joint integer-primitive scaling: both polynomials get integer
    coefficients whose collective gcd is 1;
  * removal of any monomial factor common to every term of num and den;
  * cancellation of a common polynomial factor (exact multivariate gcd via
    primitive remainder sequences) whenever both parts are multi-term and a
    cheap evaluation probe does not rule a factor out - without this, the
    binomial denominators of Grassmannian overlaps compound uncontrollably
    under composition;
  * the leading coefficient of den (graded-lex order) is positive.

Each common factor is cancelled once.  A gcd with a single-term argument
is a monomial, read off the exponents without any remainder sequence.
Every other gcd is verified by dividing both arguments, and those two
quotients are cached with it; the cancellation takes them from the cache
instead of dividing again, and a repeated pair costs one lookup.

The normal form is computed once per value.  Arithmetic whose result is
already normal returns it without normalising again: a zero operand of
+ or - gives back the other operand (negated for 0 - x), negation flips
the sign of num only, and an inverse swaps num and den (negating both if
den then leads negative); each keeps every rule above.  This relies on
the normalisation being idempotent and commuting with negation.

A monomial fraction, one term over one term such as z_k/z_j or 1/z_j^2,
needs no normalisation pass at all.  Its normal form depends only on the
reduced coefficient p/q with q > 0 and the signed exponent vector
e = (num exponents) - (den exponents): it is p*x^max(e, 0) over
q*x^max(-e, 0), since a one-term part never reaches the probe or the gcd.
Products, quotients, inverses, derivatives and scalar multiples of
monomial fractions, and every constant, variable or one-term polynomial
taken as a fraction, are built that way by _monomial, with int arithmetic
and one gcd.  So is the zero that a product with a zero factor or a sum
that cancels returns.  Every other value goes through _normalize_pair,
the one general normaliser.

A sum of any number of terms is normalised once, by RatFun.sum, the one
place where rational functions are summed: numerators over equal
denominators are added as polynomials, the groups are brought onto the
lcm of their denominators (cofactors from a monomial shift or from the
gcd cache), and only the final quotient is normalised.  a + b and a - b
are sums of two terms.  Keyed sums, such as the components of a
superfunction or of a Cech section, go through sum_by_key, the one keyed
accumulation beside RatFun.sum: a key with one term keeps it as it is,
and a key with several gets one RatFun.sum.  Keyed families are
compared by equal_by_key.

The inner loops stay in C where they can.  A product of two monomial
fractions multiplies two pairs of ints and adds two exponent vectors, and
never builds a polynomial product.  A product with a one-term factor is
one dict comprehension, since shifting distinct exponents keeps
them distinct and nothing cancels; exponents are added and subtracted
with map over operator.add and operator.sub, and the graded-lex maximum
is max over (total degree, exponents) pairs.  The coprimality probe's
values are kept on each polynomial, so a polynomial is evaluated at most
once per probe point, and the memo dies with it.  Poly and RatFun fill
their slots through the slot descriptors' own setters.

Equality of rational functions is decided by cross-multiplication,
a.num*b.den == b.num*a.den, which is exact and never depends on which
representative the normalisation happened to keep.  Identical parts are
equal without it.

All values are immutable after construction and all operations are pure,
so everything here can be shared freely across threads.  The gcd cache is
the only shared state; it holds verified results only, so a lookup can
miss but never mislead.  A polynomial's cached hash and probe values are
functions of its terms, so filling them never changes its value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, sub
from typing import Any, Callable, Hashable, Iterable, Mapping, Optional, Sequence, TypeVar

Exponent = tuple[int, ...]
Key = TypeVar("Key", bound=Hashable)

Rational = int | Fraction

_INT_ONLY = frozenset({int})
_RATIONAL = frozenset({int, Fraction})


def exact(value) -> Rational:
    """value as an int when integral, else as a Fraction; floats are refused."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact coefficient {value!r}; use int or Fraction")
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _exact_div(a: Rational, b: Rational) -> Rational:
    """a / b without ever producing a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return exact(Fraction(a) / b)


def _canonical(terms: dict) -> dict:
    """Turn integral Fractions left by arithmetic on Fractions back into ints."""
    if _INT_ONLY.issuperset(map(type, terms.values())):
        return terms
    return {e: exact(c) for e, c in terms.items()}


def _grlex(exps: Exponent) -> tuple[int, Exponent]:
    """Sort key of the graded-lex monomial order: total degree, then exponents."""
    return sum(exps), exps


class Poly:
    """Sparse exact polynomial over Q in a fixed ordered set of variables."""

    __slots__ = ("variables", "terms", "_hash", "_probes")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Rational]):
        variables = tuple(variables)
        clean: dict[Exponent, Rational] = {}
        nvars = len(variables)
        for exps, coeff in terms.items():
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match {nvars} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if type(coeff) is not int:
                coeff = exact(coeff)
            if coeff != 0:
                clean[tuple(exps)] = coeff
        _set_variables(self, variables)
        _set_terms(self, clean)
        _set_hash(self, None)
        _set_probes(self, None)

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict[Exponent, Rational]) -> Poly:
        # Internal fast path: terms must already be canonical (tuple keys,
        # nonzero int or non-integral Fraction values, correct arity).
        self = _new(cls)
        _set_variables(self, variables)
        _set_terms(self, terms)
        _set_hash(self, None)
        _set_probes(self, None)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> Poly:
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> Poly:
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> Poly:
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> Optional[Rational]:
        """The constant value if this polynomial is constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            exps, coeff = next(iter(self.terms.items()))
            if not any(exps):
                return coeff
        return None

    def leading(self) -> tuple[Exponent, Rational]:
        """Leading term under graded-lex order (requires a nonzero poly)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        terms = self.terms
        _, exps = max(zip(map(sum, terms), terms))
        return exps, terms[exps]

    def homogeneous_degree(self) -> Optional[int]:
        """Common total degree of all terms, or None if inhomogeneous/zero."""
        degrees = {sum(e) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def _require_same_variables(self, other: Poly) -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"mismatched variable sets: {self.variables} vs {other.variables}"
            )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        self._require_same_variables(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            value = out.get(exps, 0) + coeff
            if value == 0:
                out.pop(exps, None)
            else:
                out[exps] = value
        return Poly._raw(self.variables, _canonical(out))

    def __sub__(self, other: Poly) -> Poly:
        self._require_same_variables(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            value = out.get(exps, 0) - coeff
            if value == 0:
                out.pop(exps, None)
            else:
                out[exps] = value
        return Poly._raw(self.variables, _canonical(out))

    def __neg__(self) -> Poly:
        return Poly._raw(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Poly) -> Poly:
        self._require_same_variables(other)
        a, b = self.terms, other.terms
        # One term times distinct exponents gives distinct exponents and
        # nonzero coefficients: nothing to collect and nothing cancels.
        if len(b) == 1:
            ((e2, c2),) = b.items()
            out = {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in a.items()}
        elif len(a) == 1:
            ((e1, c1),) = a.items()
            out = {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in b.items()}
        else:
            out = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    exps = tuple(map(add, e1, e2))
                    value = out.get(exps, 0) + c1 * c2
                    if value == 0:
                        out.pop(exps, None)
                    else:
                        out[exps] = value
        return Poly._raw(self.variables, _canonical(out))

    def scale(self, value) -> Poly:
        value = exact(value)
        if value == 0:
            return Poly._raw(self.variables, {})
        return Poly._raw(
            self.variables, _canonical({e: c * value for e, c in self.terms.items()})
        )

    def __pow__(self, power: int) -> Poly:
        if power < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.variables, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def derivative(self, name: str) -> Poly:
        idx = self.variables.index(name)
        out: dict[Exponent, Rational] = {}
        for exps, coeff in self.terms.items():
            if exps[idx] == 0:
                continue
            new = list(exps)
            new[idx] -= 1
            new_t = tuple(new)
            out[new_t] = out.get(new_t, 0) + coeff * exps[idx]
        return Poly(self.variables, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        cached = self._hash
        if cached is None:
            cached = hash((self.variables, frozenset(self.terms.items())))
            _set_hash(self, cached)
        return cached

    # -- printing --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Rational]]:
        """Terms in descending graded-lex order, the canonical print order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_grlex, reverse=True)]

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e > 0
            ]
            if not factors:
                body = _frac_str(coeff)
            elif coeff == 1:
                body = "*".join(factors)
            elif coeff == -1:
                body = "-" + "*".join(factors)
            else:
                body = _frac_str(coeff) + "*" + "*".join(factors)
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return f"Poly({self.to_str()})"


# The slot setters write past the immutability guard at half the cost of
# object.__setattr__, which looks the slot up by name on every call.
_new = object.__new__
_set_variables = Poly.variables.__set__
_set_terms = Poly.terms.__set__
_set_hash = Poly._hash.__set__
_set_probes = Poly._probes.__set__


def _frac_str(value: Rational) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class RatFun:
    """Quotient of two polynomials with a cheap canonical normal form."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        num._require_same_variables(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = _normalize_pair(num, den)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> RatFun:
        # Internal fast path: (num, den) must already be in normal form.
        self = _new(cls)
        _set_num(self, num)
        _set_den(self, den)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RatFun is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_poly(cls, p: Poly) -> RatFun:
        terms = p.terms
        if len(terms) > 1:
            return cls(p, Poly.const(p.variables, 1))
        if not terms:
            return _monomial(p.variables, 0, 1, ())
        ((exps, coeff),) = terms.items()
        return _monomial(p.variables, coeff.numerator, coeff.denominator, exps)

    @classmethod
    def zero(cls, variables: Sequence[str]) -> RatFun:
        return cls.from_poly(Poly.zero(variables))

    @classmethod
    def one(cls, variables: Sequence[str]) -> RatFun:
        return cls.from_poly(Poly.const(variables, 1))

    @classmethod
    def const(cls, variables: Sequence[str], value) -> RatFun:
        return cls.from_poly(Poly.const(variables, value))

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> RatFun:
        return cls.from_poly(Poly.var(variables, name))

    # -- queries ----------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self.num.variables

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_constant(self) -> Optional[Rational]:
        """The exact value (int or Fraction) if this is a constant, else None.

        num/den equals a scalar c iff num == c*den; c can only be the ratio
        of the leading coefficients, so one comparison decides it.
        """
        if self.is_zero:
            return 0
        _, cn = self.num.leading()
        _, cd = self.den.leading()
        ratio = _exact_div(cn, cd)
        if self.num == self.den.scale(ratio):
            return ratio
        return None

    def equals(self, other: RatFun) -> bool:
        """Exact equality by cross-multiplication, skipped for identical parts."""
        self.num._require_same_variables(other.num)
        if self.num == other.num and self.den == other.den:
            return True
        return self.num * other.den == other.num * self.den

    def homogeneous_degree(self) -> Optional[int]:
        """deg(num) - deg(den) when both are homogeneous, else None."""
        if self.is_zero:
            return None
        dn = self.num.homogeneous_degree()
        dd = self.den.homogeneous_degree()
        if dn is None or dd is None:
            return None
        return dn - dd

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def sum(terms: Sequence[RatFun]) -> RatFun:
        """The sum of one or more normal terms, normalised once.

        Numerators over equal denominators are added as polynomials.  The
        groups then join a running sum num/D over the lcm of their
        denominators: with g = gcd(D, d), the group n/d gives
        (num * d/g + n * D/g) / (D * d/g).  A constant g cross-multiplies,
        a monomial g divides by shifting exponents, and any other g takes
        both quotients from the gcd cache.  A sum with at most one nonzero
        term returns that term, or the first term, as it is, and a sum that
        cancels returns the zero normal form.  A sum meets
        few distinct denominators, so a scan finds each term's group.
        """
        first = last = terms[0]
        variables = first.num.variables
        dens: list[Poly] = []
        nums: list[Poly] = []
        kept = 0
        for term in terms:
            num, den = term.num, term.den
            if num.variables != variables:
                first.num._require_same_variables(num)
            if not num.terms:
                continue
            kept += 1
            last = term
            for i, d in enumerate(dens):
                if d is den or d == den:
                    nums[i] = nums[i] + num
                    break
            else:
                dens.append(den)
                nums.append(num)
        if kept < 2:
            return last
        groups = [(n, d) for n, d in zip(nums, dens) if n.terms]
        num, den = groups[0] if groups else (nums[0], dens[0])
        for n, d in groups[1:]:
            g = poly_gcd(den, d)
            if len(g.terms) > 1:
                den_cof, d_cof = _cofactors(den, d, g)
            else:
                # g is the monomial x^shift, and 1 when den and d are coprime.
                shift = next(iter(g.terms))
                den_cof, d_cof = den, d
                if any(shift):
                    den_cof, d_cof = _shift_poly(den, shift), _shift_poly(d, shift)
            num = num * d_cof + n * den_cof
            den = den * d_cof
        if not num.terms:  # the terms cancelled
            return _monomial(variables, 0, 1, ())
        return RatFun(num, den)

    def __add__(self, other: RatFun) -> RatFun:
        if self.num.is_zero or other.num.is_zero:
            self.num._require_same_variables(other.num)
            return self if other.num.is_zero else other
        return RatFun.sum((self, other))

    def __sub__(self, other: RatFun) -> RatFun:
        if self.num.is_zero or other.num.is_zero:
            self.num._require_same_variables(other.num)
            return self if other.num.is_zero else -other
        return RatFun.sum((self, -other))

    def __neg__(self) -> RatFun:
        return RatFun._raw(-self.num, self.den)

    def _unit_sign(self) -> int:
        """1 or -1 when this is the constant 1 or -1, else 0."""
        if len(self.num.terms) != 1 or len(self.den.terms) != 1:
            return 0
        if self.den.is_constant() != 1:
            return 0
        value = self.num.is_constant()
        return value if value in (1, -1) else 0

    def _as_monomial(self) -> Optional[tuple[int, int, Exponent, Exponent]]:
        """(p, q, a, b) when this is p*x^a / (q*x^b), one term over one, else None."""
        num, den = self.num.terms, self.den.terms
        if len(num) != 1 or len(den) != 1:
            return None
        ((num_exps, p),) = num.items()
        ((den_exps, q),) = den.items()
        return p, q, num_exps, den_exps

    def __mul__(self, other: RatFun) -> RatFun:
        a = self._as_monomial()
        b = None if a is None else other._as_monomial()
        if b is not None:
            self.num._require_same_variables(other.num)
            (pa, qa, ea, fa), (pb, qb, eb, fb) = a, b
            exps = map(sub, map(add, ea, eb), map(add, fa, fb))
            return _monomial(self.num.variables, pa * pb, qa * qb, tuple(exps))
        if self.num.is_zero or other.num.is_zero:
            self.num._require_same_variables(other.num)
            return _monomial(self.num.variables, 0, 1, ())
        # A factor of 1 or -1 leaves the other factor's normal form intact.
        for unit, value in ((self, other), (other, self)):
            sign = unit._unit_sign()
            if sign:
                self.num._require_same_variables(other.num)
                return value if sign > 0 else -value
        num_a, den_a = self.num, self.den
        num_b, den_b = other.num, other.den
        num_a, den_b = _cross_cancel(num_a, den_b)
        num_b, den_a = _cross_cancel(num_b, den_a)
        return RatFun(num_a * num_b, den_a * den_b)

    def __truediv__(self, other: RatFun) -> RatFun:
        return self * other.inverse()

    def scale(self, value) -> RatFun:
        a = self._as_monomial()
        if a is not None:
            value = exact(value)
            p, q, num_exps, den_exps = a
            exps = tuple(map(sub, num_exps, den_exps))
            return _monomial(self.num.variables, p * value.numerator, q * value.denominator, exps)
        return RatFun(self.num.scale(value), self.den)

    def inverse(self) -> RatFun:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        a = self._as_monomial()
        if a is not None:
            p, q, num_exps, den_exps = a
            return _monomial(self.num.variables, q, p, tuple(map(sub, den_exps, num_exps)))
        if self.num.leading()[1] < 0:
            return RatFun._raw(-self.den, -self.num)
        return RatFun._raw(self.den, self.num)

    def __pow__(self, power: int) -> RatFun:
        if power < 0:
            return self.inverse() ** (-power)
        return RatFun(self.num**power, self.den**power)

    def derivative(self, name: str) -> RatFun:
        """Quotient-rule derivative with respect to one variable.

        The derivative of (p/q) * x^e is (p*e_i/q) * x^(e - 1_i).
        """
        a = self._as_monomial()
        if a is not None:
            p, q, num_exps, den_exps = a
            i = self.num.variables.index(name)
            exps = list(map(sub, num_exps, den_exps))
            power = exps[i]
            exps[i] -= 1
            return _monomial(self.num.variables, p * power, q, exps)
        dn = self.num.derivative(name)
        dd = self.den.derivative(name)
        return RatFun(dn * self.den - self.num * dd, self.den * self.den)

    def renamed(self, variables: tuple[str, ...], order: Sequence[int]) -> RatFun:
        """This function with variables[p] in place of self.variables[order[p]].

        Scaling, the monomial strip and the gcd cancellation commute with a
        renaming.  The positive lead of den does not, since the graded-lex
        order reads the variables in order: num and den are negated together
        when den's renamed lead is negative, and no gcd or product runs.
        The probe that lets a gcd be skipped reads the order too; were it
        ever to skip a real common factor, the result could keep a factor
        that a fresh normalisation cancels, never a different value.
        """

        def moved(p: Poly) -> Poly:
            return Poly._raw(variables, {tuple([e[k] for k in order]): c for e, c in p.terms.items()})

        num, den = moved(self.num), moved(self.den)
        if den.leading()[1] < 0:
            num, den = -num, -den
        return RatFun._raw(num, den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        raise TypeError("RatFun is unhashable; equality is value-based")

    def to_str(self) -> str:
        if self.den.is_constant() == 1:
            return f"({self.num.to_str()})"
        return f"({self.num.to_str()})/({self.den.to_str()})"

    def __repr__(self):
        return f"RatFun({self.to_str()})"


_set_num = RatFun.num.__set__
_set_den = RatFun.den.__set__


def sum_by_key(
    out: dict[Key, RatFun], terms: Iterable[tuple[Key, RatFun]]
) -> dict[Key, RatFun]:
    """out with every (key, term) added at its key, one RatFun.sum per key.

    out, which this takes over and returns, holds the first term of each
    key it has.  A first term is kept as it is; only the keys that collect
    several terms go through RatFun.sum, which normalises once.  A sum
    that cancels stays in out as a zero, for the caller to drop.
    """
    more: dict[Key, list[RatFun]] = {}
    for key, term in terms:
        prev = out.get(key)
        if prev is None:
            out[key] = term
        elif key in more:
            more[key].append(term)
        else:
            more[key] = [prev, term]
    for key, group in more.items():
        out[key] = RatFun.sum(group)
    return out


def equal_by_key(mine: Mapping[Key, Any], theirs: Mapping[Key, Any]) -> bool:
    """Whether two keyed families are equal, value by value through equals.

    No zero value is ever stored, so equal families share their keys.
    """
    return mine.keys() == theirs.keys() and all(v.equals(theirs[k]) for k, v in mine.items())


def _cross_cancel(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """a and b with their common polynomial factor divided out.

    Used on the parts of a quotient before multiplying fractions, which
    keeps products of reduced fractions reduced instead of re-reducing the
    larger result, and by the constructor's final cancellation step.  A
    nontrivial factor needs both parts multi-term (monomial factors are left
    to the cheaper stripping in the constructor), and skipping a reduction
    is always sound, so coprime pairs are filtered out first by evaluation
    at fixed points.  The quotients are the cofactors that poly_gcd cached
    when it verified its result, so no division runs twice.
    """
    if len(a.terms) > 1 and len(b.terms) > 1 and not _probably_coprime(a, b):
        g = poly_gcd(a, b)
        if g.is_constant() is None:
            return _cofactors(a, b, g)
    return a, b


def _monomial(variables: tuple[str, ...], p: int, q: int, exps: Sequence[int]) -> RatFun:
    """The normal form of (p/q) * x^exps, for ints p and q != 0 and signed exps.

    This is what _normalize_pair returns for a one-term num and den, which
    never reach its probe or gcd: gcd(p, q) divides out, the monomial strip
    leaves x^max(exps, 0) over x^max(-exps, 0), and the one coefficient of
    den is made positive.  p = 0 gives the zero normal form, and exps may be
    () then.
    """
    if q < 0:
        p, q = -p, -q
    if not p:
        return RatFun._raw(
            Poly._raw(variables, {}), Poly._raw(variables, {(0,) * len(variables): 1})
        )
    g = gcd(p, q)
    if g != 1:
        p //= g
        q //= g
    return RatFun._raw(
        Poly._raw(variables, {tuple([e if e > 0 else 0 for e in exps]): p}),
        Poly._raw(variables, {tuple([-e if e < 0 else 0 for e in exps]): q}),
    )


def _normalize_pair(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if num.is_zero:
        return num, Poly.const(num.variables, 1)

    num, den = _primitive(num, den)

    # Strip a monomial factor common to every term of both polynomials.
    shift = tuple(map(min, zip(*num.terms, *den.terms)))
    if any(shift):
        num = _shift_poly(num, shift)
        den = _shift_poly(den, shift)

    # Cancel a common polynomial factor: this is where unreduced growth
    # compounds (binomial denominators of Grassmannian overlaps), so the gcd
    # pays for itself.
    num, den = _cross_cancel(num, den)

    # Positive leading coefficient for the denominator.
    _, lead = den.leading()
    if lead < 0:
        num = -num
        den = -den
    return num, den


def _primitive(*polys: Poly) -> list[Poly]:
    """Scale nonzero polys jointly to integer coefficients with collective gcd 1."""
    coeffs = [c for p in polys for c in p.terms.values()]
    if _INT_ONLY.issuperset(map(type, coeffs)):
        content = gcd(*coeffs)
        if content == 1:
            return list(polys)
        return [
            Poly._raw(p.variables, {e: c // content for e, c in p.terms.items()})
            for p in polys
        ]
    denom_lcm = lcm(*(c.denominator for c in coeffs))
    numer_gcd = gcd(*(c.numerator * (denom_lcm // c.denominator) for c in coeffs))
    return [p.scale(Fraction(denom_lcm, numer_gcd)) for p in polys]


def _shift(exps: Exponent, shift: Exponent) -> Exponent:
    return tuple(map(sub, exps, shift))


def _shift_poly(p: Poly, shift: Exponent) -> Poly:
    """p / x^shift, for a monomial x^shift that divides every term of p."""
    return Poly._raw(p.variables, {_shift(e, shift): c for e, c in p.terms.items()})


# -- exact multivariate gcd (primitive subresultant remainder sequences) -----

# A common factor f divides the values of both polynomials at any integer
# point, so a value gcd of at most _PROBE_BOUND rules out every f with
# |f(point)| > _PROBE_BOUND.  The coordinates of each point are distinct
# primes about 2 * _PROBE_BOUND apart, so no difference x_i - x_j is that
# small; points for more variables are padded in steps of 2 * _PROBE_BOUND.
_PROBE_BOUND = 1000
_PROBE_POINTS = (
    (1009, 3001, 5003, 7001, 9001, 11003, 13001, 15013, 17011, 19001),
    (15017, 3011, 19013, 5009, 17021, 7013, 1013, 9007, 13003, 11027),
)


@cache
def _probe_points(nvars: int) -> tuple[tuple[int, ...], ...]:
    step = 2 * _PROBE_BOUND
    return tuple(
        point[:nvars] + tuple(max(point) + step * k for k in range(1, nvars - len(point) + 1))
        for point in _PROBE_POINTS
    )


def _eval_int(p: Poly, point: tuple[int, ...]) -> Rational:
    total = 0
    for exps, coeff in p.terms.items():
        value = coeff
        for base, e in zip(point, exps):
            if e:
                value = value * base**e
        total += value
    return total


def _probe(p: Poly, k: int) -> int:
    """The numerator of p at probe point k, evaluated once per polynomial.

    The values are kept in p's _probes slot, so they live and die with p;
    like _hash they play no part in equality or hashing.
    """
    values = p._probes
    if values is None:
        values = [None] * len(_PROBE_POINTS)
        _set_probes(p, values)
    value = values[k]
    if value is None:
        value = values[k] = _eval_int(p, _probe_points(len(p.variables))[k]).numerator
    return value


def _probably_coprime(a: Poly, b: Poly) -> bool:
    """Cheap one-sided coprimality filter.

    Two independent points with a small nonzero value gcd certify that
    running the full remainder sequence would be wasted work.  A value gcd
    of 0 (both polynomials vanish) says nothing.  A False answer only means
    "worth trying"; skipping a real factor merely costs size.
    """
    for k in range(len(_PROBE_POINTS)):
        if 0 < gcd(_probe(a, k), _probe(b, k)) <= _PROBE_BOUND:
            return True
    return False


def poly_exact_div(a: Poly, b: Poly) -> Optional[Poly]:
    """The quotient a / b when the division is exact, else None."""
    if b.is_zero:
        raise ZeroDivisionError("exact division by the zero polynomial")
    if a.is_zero:
        return a
    variables = a.variables
    b_lead_exp, b_lead_coeff = b.leading()
    remainder = dict(a.terms)
    quotient: dict[Exponent, Rational] = {}
    while remainder:
        _, exps = max(zip(map(sum, remainder), remainder))
        coeff = remainder[exps]
        q_exp = tuple(map(sub, exps, b_lead_exp))
        if any(e < 0 for e in q_exp):
            return None
        q_coeff = _exact_div(coeff, b_lead_coeff)
        quotient[q_exp] = q_coeff
        for b_exp, b_coeff in b.terms.items():
            key = tuple(map(add, q_exp, b_exp))
            value = remainder.get(key, 0) - q_coeff * b_coeff
            if value == 0:
                remainder.pop(key, None)
            else:
                remainder[key] = value
    return Poly._raw(variables, quotient)


def _integer_primitive(p: Poly) -> Poly:
    """Scale to integer coefficients with gcd 1 and positive leading term."""
    if p.is_zero:
        return p
    (scaled,) = _primitive(p)
    _, lead = scaled.leading()
    return -scaled if lead < 0 else scaled


def _degree_in(p: Poly, idx: int) -> int:
    return max((e[idx] for e in p.terms), default=0)


def _coeff_wrt(p: Poly, idx: int, degree: int) -> Poly:
    terms = {}
    for exps, coeff in p.terms.items():
        if exps[idx] == degree:
            stripped = list(exps)
            stripped[idx] = 0
            terms[tuple(stripped)] = coeff
    return Poly._raw(p.variables, terms)


def _shift_in(p: Poly, idx: int, amount: int) -> Poly:
    if amount == 0:
        return p
    terms = {}
    for exps, coeff in p.terms.items():
        shifted = list(exps)
        shifted[idx] += amount
        terms[tuple(shifted)] = coeff
    return Poly._raw(p.variables, terms)


def _pseudo_rem(a: Poly, b: Poly, idx: int) -> Poly:
    """Pseudo-remainder of a by b with respect to variable idx."""
    db = _degree_in(b, idx)
    lcb = _coeff_wrt(b, idx, db)
    e = _degree_in(a, idx) - db + 1
    r = a
    while not r.is_zero and _degree_in(r, idx) >= db:
        dr = _degree_in(r, idx)
        lcr = _coeff_wrt(r, idx, dr)
        r = lcb * r - _shift_in(lcr, idx, dr - db) * b
        e -= 1
    if e > 0:
        r = (lcb**e) * r
    return r


def _content_pp(p: Poly, idx: int) -> tuple[Poly, Poly]:
    """Content (gcd of the idx-coefficients) and primitive part."""
    content = Poly.zero(p.variables)
    for d in range(_degree_in(p, idx) + 1):
        coeff = _coeff_wrt(p, idx, d)
        if not coeff.is_zero:
            content = poly_gcd(content, coeff)
            if content.is_constant() is not None:
                return Poly.const(p.variables, 1), p
    if len(content.terms) == 1:
        # An integer-primitive monomial is x^m: divide by shifting exponents.
        return content, _shift_poly(p, next(iter(content.terms)))
    # Every gcd in the chain divides its inputs, so this division is exact.
    return content, poly_exact_div(p, content)


# (a, b) -> (g, a/g, b/g) for every remainder-sequence gcd that was verified
# to divide both inputs.  When full, the cache starts over.
_GCD_CACHE: dict[tuple[Poly, Poly], tuple[Poly, Poly, Poly]] = {}
_GCD_CACHE_LIMIT = 1 << 16


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor over Q, integer-primitive with positive lead.

    A zero argument gives the other one made primitive.  When either
    argument is a single term, the gcd is x^m, with m the componentwise
    minimum exponent over the terms of both, and it is returned at once.
    Otherwise recursive primitive remainder sequences run: the first active
    variable is made the main one, contents are split off and combined
    recursively.  Their result is kept only if it divides both arguments,
    and the two quotients of that check are cached with it: a repeated pair
    costs one lookup, and _cofactors reads a/g and b/g without dividing.
    Used only to keep rational-function representatives small; equality
    never depends on it.
    """
    a._require_same_variables(b)
    if a.is_zero:
        return _integer_primitive(b)
    if b.is_zero:
        return _integer_primitive(a)
    if len(a.terms) == 1 or len(b.terms) == 1:
        exps = tuple(map(min, zip(*a.terms, *b.terms)))
        return Poly._raw(a.variables, {exps: 1})
    entry = _GCD_CACHE.get((a, b))
    if entry is not None:
        return entry[0]
    g = _poly_gcd_uncached(_integer_primitive(a), _integer_primitive(b))
    entry = (g, a, b) if g.is_constant() is not None else _verified(a, b, g)
    if entry is None:
        # Spurious content can survive the heuristically stripped remainder
        # sequence; a non-divisor "gcd" is discarded rather than propagated.
        return Poly.const(a.variables, 1)
    if len(_GCD_CACHE) >= _GCD_CACHE_LIMIT:
        _GCD_CACHE.clear()
    _GCD_CACHE[(a, b)] = entry
    return g


def _verified(a: Poly, b: Poly, g: Poly) -> Optional[tuple[Poly, Poly, Poly]]:
    """(g, a/g, b/g) when g divides both a and b, else None."""
    qa = poly_exact_div(a, g)
    qb = None if qa is None else poly_exact_div(b, g)
    return None if qb is None else (g, qa, qb)


def _cofactors(a: Poly, b: Poly, g: Poly) -> tuple[Poly, Poly]:
    """(a/g, b/g) for g = poly_gcd(a, b): the cached verifying quotients.

    The two divisions run again only if the pair is not cached with this
    g, and a g that does not divide both leaves (a, b) unchanged.
    """
    entry = _GCD_CACHE.get((a, b))
    if entry is None or entry[0] is not g:
        entry = _verified(a, b, g) or (g, a, b)
    return entry[1], entry[2]


def _poly_gcd_uncached(a: Poly, b: Poly) -> Poly:
    idx = next(
        i
        for i in range(len(a.variables))
        if _degree_in(a, i) > 0 or _degree_in(b, i) > 0
    )
    ca, pa = _content_pp(a, idx)
    cb, pb = _content_pp(b, idx)
    cg = poly_gcd(ca, cb)
    if _probably_coprime(pa, pb):
        return _integer_primitive(cg)
    if _degree_in(pa, idx) < _degree_in(pb, idx):
        pa, pb = pb, pa
    while not pb.is_zero:
        r = _pseudo_rem(pa, pb, idx)
        if r.is_zero:
            pa = pb
            break
        _, r_pp = _content_pp(_integer_primitive(r), idx)
        pa, pb = pb, r_pp
    return _integer_primitive(cg * pa)


# -- exact linear algebra ----------------------------------------------------


# What elimination needs of its entries, as a quadruple: a nonzero test
# (which entries must be cleared), a pivot test, the inverse of a pivot, and
# the one and zero of the ring a pivot lives in.
Field = tuple[
    Callable[[Any], bool],
    Callable[[Any], bool],
    Callable[[Any], Any],
    Callable[[Any], tuple[Any, Any]],
]


def nonzero(value) -> bool:
    return not value.is_zero


FRACTIONS: Field = (bool, bool, lambda value: Fraction(1, value), lambda value: (1, 0))
RATFUNS: Field = (
    nonzero,
    nonzero,
    lambda value: value.inverse(),
    lambda value: (RatFun.one(value.variables), RatFun.zero(value.variables)),
)


def gauss_jordan(aug: list[list], n_cols: int, field: Field) -> list[int]:
    """Reduce the first n_cols columns of aug in place; return the pivot columns.

    The pivot is the first pivotable entry at or below the current row; its
    row is swapped up and scaled by the inverse, then the other rows are
    cleared top to bottom, skipping zeros.  Columns without a pivot are
    skipped, and the reduction stops when the rows run out.  Scaling and
    clearing touch only the columns where the pivot row is nonzero: every
    other entry would change by a zero multiple.  The pivot column is not
    computed: it becomes the field's one in the pivot row and its zero in
    every row cleared.
    """
    nonzero_test, pivotable, inverse, one_zero = field
    pivots: list[int] = []
    for col in range(n_cols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(aug)) if pivotable(aug[r][col])), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pivot_row = aug[row]
        support = [c for c, entry in enumerate(pivot_row) if c != col and nonzero_test(entry)]
        inv = inverse(pivot_row[col])
        one, zero = one_zero(pivot_row[col])
        pivot_row[col] = one
        for c in support:
            pivot_row[c] = pivot_row[c] * inv
        for r, other in enumerate(aug):
            if r != row and nonzero_test(other[col]):
                f = other[col]
                other[col] = zero
                for c in support:
                    other[c] = other[c] - f * pivot_row[c]
        pivots.append(col)
        if len(pivots) == len(aug):
            break
    return pivots


def solve_square(
    matrix: Sequence[Sequence], right: Sequence[Sequence], field: Field, name: str, singular: str
) -> list[list]:
    """matrix^-1 * right for a square invertible matrix; ValueError otherwise."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(right) != n:
        raise ValueError(f"{name} expects a square system")
    aug = [list(row) + list(extra) for row, extra in zip(matrix, right)]
    if len(gauss_jordan(aug, n, field)) < n:
        raise ValueError(singular)
    return [row[n:] for row in aug]


def rat_solve(matrix: Sequence[Sequence[RatFun]], rhs: Sequence[RatFun]) -> list[RatFun]:
    """Solve M x = rhs exactly for a square invertible RatFun matrix."""
    singular = "singular matrix in rat_solve"
    x = solve_square(matrix, [[v] for v in rhs], RATFUNS, "rat_solve", singular)
    return [row[0] for row in x]


def rat_mat_inverse(matrix: Sequence[Sequence[RatFun]]) -> list[list[RatFun]]:
    """Exact inverse of a square invertible RatFun matrix."""
    n = len(matrix)
    variables = matrix[0][0].variables if n and matrix[0] else ()
    one, zero = RatFun.one(variables), RatFun.zero(variables)
    identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
    singular = "singular matrix in rat_mat_inverse"
    return solve_square(matrix, identity, RATFUNS, "rat_mat_inverse", singular)


def solve_fraction_system(
    rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> Optional[list[Fraction]]:
    """One exact solution of a (possibly overdetermined) linear system over Q.

    Returns None when the system is inconsistent; free variables are set
    to zero.  Entries must be int or Fraction and are used as they are; a
    float raises TypeError.  The rows are copied, never changed, and reduced
    by gauss_jordan, whose row operations run only over the pivot row's
    nonzero columns, so a sparse system costs little more than its nonzeros.
    """
    if not rows:
        return []
    n = len(rows[0])
    aug = []
    for row, value in zip(rows, rhs, strict=True):
        entries = [*row, value]
        if not _RATIONAL.issuperset(map(type, entries)):
            raise TypeError("solve_fraction_system takes int and Fraction entries only")
        aug.append(entries)
    pivots = gauss_jordan(aug, n, FRACTIONS)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    solution = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        solution[col] = Fraction(row[n])
    return solution
