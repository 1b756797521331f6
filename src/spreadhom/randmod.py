"""Random persistence modules for property tests and surveys.

Modules are produced as base-changed sums of spread modules, or as kernels of
random morphisms between such sums, so every draw is a genuine module.
"""
from __future__ import annotations

import random

from .field import Matrix, PrimeField
from .hom import hom_basis, kernel_module
from .modules import PersistenceModule, direct_sum, morphism_from_vec, spread_module
from .poset import Poset, enumerate_spreads

MAX_SUMMANDS = 3


def random_invertible(field: PrimeField, rng: random.Random, d: int) -> Matrix:
    if d == 0:
        return field.zeros(0, 0)
    while True:
        m = field.arr([[rng.randrange(field.p) for _ in range(d)] for _ in range(d)])
        if field.rank(m) == d:
            return m


def _invert(field: PrimeField, u: Matrix) -> Matrix:
    sol = field.solve(u, field.eye(u.shape[0]))
    assert sol is not None
    return sol


def base_change(m: PersistenceModule, rng: random.Random) -> PersistenceModule:
    """An isomorphic copy with random bases at every element."""
    field = m.field
    us = [random_invertible(field, rng, d) for d in m.dims]
    inv = [_invert(field, u) for u in us]
    maps = {
        (a, b): field.matmul(us[b], field.matmul(m.maps[(a, b)], inv[a]))
        for a, b in m.poset.covers
    }
    return PersistenceModule._build(m.poset, field, m.dims, maps)


def random_spread_sum(p: Poset, field: PrimeField, rng: random.Random,
                      spreads=None) -> PersistenceModule:
    if spreads is None:
        spreads = enumerate_spreads(p, "connected_spreads")
    k = rng.randint(1, MAX_SUMMANDS)
    picks = [spreads[rng.randrange(len(spreads))] for _ in range(k)]
    return direct_sum([spread_module(s, field) for s in picks])


def random_module(p: Poset, field: PrimeField, rng: random.Random,
                  spreads=None) -> PersistenceModule:
    """A random module with pointwise dimension at most MAX_SUMMANDS."""
    if spreads is None:
        spreads = enumerate_spreads(p, "connected_spreads")
    m = random_spread_sum(p, field, rng, spreads)
    if rng.random() < 0.4:
        # replace by the kernel of a random morphism into another sum
        n = random_spread_sum(p, field, rng, spreads)
        basis = hom_basis(m, n)
        if basis.shape[1]:
            coeffs = [rng.randrange(field.p) for _ in range(basis.shape[1])]
            f = morphism_from_vec(m, n, [sum(x * c for x, c in zip(row, coeffs)) % field.p for row in basis.rows])
            ker, _ = kernel_module(f)
            if not ker.is_zero():
                m = ker
    return base_change(m, rng)
