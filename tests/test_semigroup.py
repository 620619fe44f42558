import pytest

from substratum import (
    ColumnMap,
    closure,
    structure_semigroup,
)


def vectors(maps) -> set[str]:
    return {m.vector() for m in maps}


def test_closure_period_doubling_columns(pd):
    cl = closure(pd.columns())
    # swapping column squares to the identity, which then breeds (b,b)
    assert vectors(cl.elements) == {"(a,a)^T", "(b,a)^T", "(a,b)^T", "(b,b)^T"}
    assert ColumnMap.identity(pd.alphabet) in cl.elements
    assert cl.min_rank == 1


def test_closure_identity_alone(pd):
    ident = ColumnMap.identity(pd.alphabet)
    cl = closure([ident])
    assert cl.elements == (ident,)
    assert cl.min_rank == 2


def test_closure_idempotent(bigdiag):
    cl = closure(bigdiag.columns())
    again = closure(cl.elements)
    assert set(again.elements) == set(cl.elements)


def closure_by_sorted_generators(generators):
    """The closure's element tables and least rank, by a BFS over the sorted,
    deduplicated generator tables, as closure ran before sharing the orbit."""
    tables = sorted({g.table for g in generators})
    identity = tuple(range(len(generators[0].alphabet)))
    queue, seen, products = [identity], {identity}, set()
    for f in queue:
        for g in tables:
            child = tuple(f[x] for x in g)  # f after g
            products.add(child)
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return sorted(products), min(len(set(t)) for t in products)


def test_closure_ignores_generator_order_and_repeats(fixtures, random_inputs):
    for sub in fixtures + random_inputs:
        columns = sub.columns()
        cl = closure(columns)
        assert closure(reversed(columns)) == cl == closure(columns + columns)
        tables, min_rank = closure_by_sorted_generators(columns)
        assert [m.table for m in cl.elements] == tables
        assert cl.min_rank == min_rank


def test_closure_bigdiag_has_coincidence(bigdiag):
    assert closure(bigdiag.columns()).min_rank == 1


def test_min_rank_thue_morse(thue_morse):
    cl = closure(thue_morse.columns())
    assert cl.min_rank == 2
    assert all(m.image_size() == 2 for m in cl.elements)


def test_graded_bigdiag_rotation_lengths(bigdiag):
    # the 3-cycle column (c,a,b)^T is a product of exactly k columns (a column
    # of theta^k) only for k = 1 mod 3, so it drops out of the intersection
    rot = bigdiag.column(1)
    assert rot.vector() == "(c,a,b)^T"
    members = [k for k in range(1, 8) if rot in bigdiag.power(k).columns()]
    assert members == [1, 4, 7]
    assert rot not in structure_semigroup(bigdiag).elements


def test_bigdiag_alpha_columns_are_rotation_powers(bigdiag):
    # the column at index (3^n - 1)/2 of theta^n is the n-th power of (c,a,b)^T
    rot = bigdiag.column(1)
    for n in range(1, 6):
        alpha = (3**n - 1) // 2
        power = rot
        for _ in range(n - 1):
            power = power.compose(rot)
        assert bigdiag.power(n).column(alpha) == power


def test_structure_semigroup_period_doubling(pd):
    struct = structure_semigroup(pd)
    assert vectors(struct.elements) == {"(a,b)^T", "(a,a)^T", "(b,b)^T"}
    assert struct.stabilizing_exponent == 2


def test_structure_semigroup_simplified_input(pd2):
    struct = structure_semigroup(pd2)
    assert vectors(struct.elements) == {"(a,b)^T", "(a,a)^T", "(b,b)^T"}
    assert struct.stabilizing_exponent == 1


def test_structure_semigroup_bigdiag(bigdiag):
    # products of 3k columns never reproduce the pure rotations, so the
    # intersection drops (c,a,b)^T and (b,c,a)^T and stabilizes at exponent 3
    struct = structure_semigroup(bigdiag)
    assert len(struct.elements) == 22
    assert struct.stabilizing_exponent == 3
    monoid = closure(list(bigdiag.columns()) + [ColumnMap.identity(bigdiag.alphabet)])
    assert set(struct.elements) < set(monoid.elements)
    missing = vectors(monoid.elements) - vectors(struct.elements)
    assert missing == {"(c,a,b)^T", "(b,c,a)^T"}


def test_structure_semigroup_matches_explicit_powers(bigdiag):
    ident = ColumnMap.identity(bigdiag.alphabet)
    explicit = None
    for n in range(1, 7):
        monoid = set(closure(list(bigdiag.power(n).columns()) + [ident]).elements)
        explicit = monoid if explicit is None else explicit & monoid
    assert set(structure_semigroup(bigdiag).elements) == explicit


def test_structure_semigroup_power_invariant(pd, bigdiag, thue_morse):
    for sub in (pd, bigdiag, thue_morse):
        base = set(structure_semigroup(sub).elements)
        for k in range(2, 7):
            assert set(structure_semigroup(sub.power(k)).elements) == base


def test_structure_semigroup_exponent_is_least(pd, pd2, bigdiag, thue_morse):
    for sub in (pd, pd2, bigdiag, thue_morse):
        struct = structure_semigroup(sub)
        ident = ColumnMap.identity(sub.alphabet)
        monoids = [
            set(closure(list(sub.power(n).columns()) + [ident]).elements)
            for n in range(1, struct.stabilizing_exponent + 1)
        ]
        assert monoids[-1] == set(struct.elements)
        assert all(monoid != set(struct.elements) for monoid in monoids[:-1])


def test_bijective_substitution_gives_group(thue_morse):
    struct = structure_semigroup(thue_morse)
    assert vectors(struct.elements) == {"(a,b)^T", "(b,a)^T"}
    elements = set(struct.elements)
    ident = ColumnMap.identity(thue_morse.alphabet)
    for m in elements:
        assert any(m.compose(inv) == ident for inv in elements)


def test_structure_contained_in_every_monoid(pd, bigdiag):
    ident_pd = ColumnMap.identity(pd.alphabet)
    ident_big = ColumnMap.identity(bigdiag.alphabet)
    for sub, ident in ((pd, ident_pd), (bigdiag, ident_big)):
        struct = set(structure_semigroup(sub).elements)
        for n in range(1, 6):
            monoid = set(closure(list(sub.power(n).columns()) + [ident]).elements)
            assert struct <= monoid


def test_closure_requires_generators():
    with pytest.raises(ValueError):
        closure([])
