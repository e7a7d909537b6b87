"""Shared helpers: deterministic random generators for algebra objects."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

settings.register_profile("superpi", deadline=None, derandomize=True)
settings.load_profile("superpi")

from superpi.rational import Poly, RatFun
from superpi.superalgebra import Chart, SuperFunction
from superpi.supermatrix import SuperMatrix
from superpi.atlas import TransitionMap


@pytest.fixture
def chart22() -> Chart:
    return Chart("T", ("z1", "z2"), ("t1", "t2"))


@pytest.fixture
def chart24() -> Chart:
    return Chart("Q", ("z1", "z2"), ("t1", "t2", "t3", "t4"))


def random_poly(rng: random.Random, variables, max_terms=2, max_degree=2) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in variables)
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if coeff:
            terms[exps] = coeff
    return Poly(variables, terms)


def random_ratfun(rng: random.Random, variables, allow_zero=True) -> RatFun:
    num = random_poly(rng, variables)
    if num.is_zero and not allow_zero:
        num = Poly.const(variables, rng.randint(1, 3))
    den_exps = tuple(rng.randint(0, 1) for _ in variables)
    den = Poly(variables, {den_exps: Fraction(rng.randint(1, 2))})
    return RatFun(num, den)


def random_superfunction(
    rng: random.Random,
    chart: Chart,
    parity=None,
    max_components=3,
    invertible=False,
) -> SuperFunction:
    odd = chart.odd_coords
    monomials = [()]
    for size in range(1, len(odd) + 1):
        for start in range(len(odd)):
            mono = odd[start : start + size]
            if len(mono) == size:
                monomials.append(tuple(mono))
    if parity == "even":
        monomials = [m for m in monomials if len(m) % 2 == 0]
    elif parity == "odd":
        monomials = [m for m in monomials if len(m) % 2 == 1]
    components = {}
    for _ in range(rng.randint(1, max_components)):
        mono = rng.choice(monomials)
        components[mono] = random_ratfun(rng, chart.even_coords)
    if invertible:
        body = components.get((), RatFun.zero(chart.even_coords))
        if body.is_zero:
            components[()] = RatFun.const(chart.even_coords, rng.randint(1, 3))
    return SuperFunction(chart, components)


def random_invertible_supermatrix(rng: random.Random, chart: Chart, p: int, q: int) -> SuperMatrix:
    """Invertible (p|q) square matrix: unit-triangular even blocks, random odd blocks."""
    zero = SuperFunction.zero(chart)

    def even_entry():
        return random_superfunction(rng, chart, parity="even", max_components=2)

    def odd_entry():
        f = random_superfunction(rng, chart, parity="odd", max_components=2)
        return f if f.parity == "odd" or f.is_zero else zero

    grid = [[zero for _ in range(p + q)] for _ in range(p + q)]
    for i in range(p):
        for j in range(p):
            if i == j:
                grid[i][j] = SuperFunction.const(chart, rng.choice((1, 2, -1)))
            elif i > j:
                grid[i][j] = even_entry()
    for i in range(q):
        for j in range(q):
            if i == j:
                grid[p + i][p + j] = SuperFunction.const(chart, rng.choice((1, 3, -2)))
            elif i > j:
                grid[p + i][p + j] = even_entry()
    for i in range(p):
        for j in range(q):
            grid[i][p + j] = odd_entry()
    for i in range(q):
        for j in range(p):
            grid[p + i][j] = odd_entry()
    return SuperMatrix(chart, (p, q), (p, q), grid)


def random_transition(rng: random.Random, source: Chart, target: Chart) -> TransitionMap:
    """Random parity-respecting transition with invertible even bodies."""
    n = len(source.even_coords)
    images = {}
    for idx, name in enumerate(target.even_coords):
        row = [Fraction(0)] * n
        row[idx % n] = Fraction(rng.choice((1, 2, -1)))
        body = RatFun.const(source.even_coords, rng.randint(1, 3))
        for v, c in zip(source.even_coords, row):
            if c:
                body = body + RatFun.var(source.even_coords, v).scale(c)
        image = SuperFunction.from_ratfun(source, body)
        if len(source.odd_coords) >= 2 and rng.random() < 0.7:
            pair = (
                SuperFunction.coordinate(source, source.odd_coords[0])
                * SuperFunction.coordinate(source, source.odd_coords[1])
            ).scale(rng.randint(-2, 2))
            image = image + pair
        images[name] = image
    for idx, name in enumerate(target.odd_coords):
        image = SuperFunction.zero(source)
        for jdx, odd in enumerate(source.odd_coords):
            coeff = rng.randint(-2, 2) if jdx != idx % len(source.odd_coords) else rng.choice((1, -1, 2))
            if coeff:
                term = SuperFunction.coordinate(source, odd).scale(coeff)
                if rng.random() < 0.3:
                    z = RatFun.var(source.even_coords, source.even_coords[0])
                    term = SuperFunction(source, {m: c * z for m, c in term.components.items()})
                image = image + term
        images[name] = image
    return TransitionMap(source, target, images)
