"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

import pytest

from substratum import (
    ColumnMap,
    NotToeplitz,
    aperiodic_in_range,
    build_direct,
    build_reverse_semigroup,
    closure,
    decide_per,
    enumerate_kernel,
    equivalent,
    minimize,
    pad,
    reduced_graph,
    reverse_and_determinize,
    structure_semigroup,
    to_digits,
    to_int,
    window_for_range,
)


@contextmanager
def budgeted(name: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name} took {elapsed:.2f}s, budget {seconds}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_period_doubling_semigroup(pd, pd2):
    with budgeted("1 period-doubling semigroup", 1.0):
        struct = structure_semigroup(pd2)
        assert {m.vector() for m in struct.elements} == {"(a,b)^T", "(a,a)^T", "(b,b)^T"}
        ident = ColumnMap.identity(pd.alphabet)
        level_one = closure(list(pd.columns()) + [ident])
        assert {m.vector() for m in level_one.elements} == {
            "(a,b)^T",
            "(a,a)^T",
            "(b,b)^T",
            "(b,a)^T",
        }


def test_criterion_2_bigdiag_direct_automaton(bigdiag):
    with budgeted("2 bigdiag direct automaton", 1.0):
        machine = build_direct(bigdiag)
        names = machine.labels
        edges = {
            (names[s], d, names[machine.delta[s][d]])
            for s in range(machine.num_states)
            for d in range(machine.ell)
        }
        assert edges == {
            ("a", 0, "a"),
            ("a", 1, "c"),
            ("a", 2, "b"),
            ("b", 0, "b"),
            ("b", 1, "a"),
            ("b", 2, "a"),
            ("c", 0, "b"),
            ("c", 1, "b"),
            ("c", 2, "a"),
        }
        assert len(edges) == 9
        assert names[machine.initial_nonneg] == "a"
        assert names[machine.initial_neg] == "b"


def test_criterion_3_reverse_machine_correctness(pd2, bigdiag):
    with budgeted("3 reverse machine vs oracle on ±10^4", 10.0):
        for sub in (pd2, bigdiag):
            machine = build_reverse_semigroup(sub)
            window = window_for_range(sub, -10_000, 10_000)
            mismatches = sum(
                1 for n in range(-10_000, 10_001) if machine.run(n) != window.letter(n)
            )
            assert mismatches == 0


def test_criterion_4_eilenberg_equality(pd2, bigdiag):
    with budgeted("4 Eilenberg equality", 10.0):
        expected = {"pd2": 3, "bigdiag": 45}
        for name, sub in (("pd2", pd2), ("bigdiag", bigdiag)):
            kernel_count = len(enumerate_kernel(sub))
            by_semigroup = minimize(build_reverse_semigroup(sub)).num_states
            by_reversal = minimize(reverse_and_determinize(build_direct(sub))).num_states
            assert kernel_count == by_semigroup == by_reversal == expected[name]


def test_criterion_5_aperiodic_set_of_period_doubling(pd2):
    with budgeted("5 aperiodic indices of period-doubling", 5.0):
        report = aperiodic_in_range(pd2, -1000, 1000)
        assert report.aperiodic == (-1,)
        graph = reduced_graph(pd2)
        assert graph.vertex_labels == ("(a,b)^T",)
        vertex = graph.vertices[0]
        assert graph.edges == ((vertex, 3, vertex),)
        assert len(graph.cycles) == 1
        assert graph.cycles[0].cycle_digits == (3,)
        assert graph.cycles[0].address == -1


def test_criterion_6_verdicts_vs_oracle(bigdiag):
    with budgeted("6 bigdiag verdicts vs oracle on ±500", 30.0):
        report = aperiodic_in_range(bigdiag, -500, 500, certify=True)
        assert report.certified
        assert report.inconsistencies == ()
        statuses = {v.index: v.is_periodic() for v in report.verdicts}
        assert set(statuses) == set(range(-500, 501))


def test_criterion_7_non_toeplitz_refusal(thue_morse):
    with budgeted("7 Thue–Morse refusal", 5.0):
        assert closure(thue_morse.columns()).min_rank == 2
        with pytest.raises(NotToeplitz):
            decide_per(thue_morse, 3)


def test_criterion_8_property_suites(pd, pd2, bigdiag):
    with budgeted("8 property suites", 60.0):
        # digit round-trip on [-10^5, 10^5]
        for base in (2, 4):
            for n in range(-100_000, 100_001):
                assert to_int(to_digits(n, base)) == n

        # padding invariance of run
        for sub in (pd2, bigdiag):
            direct = build_direct(sub)
            reverse = build_reverse_semigroup(sub)
            p_r, p_l = sub.seed_periods()
            for n in range(-64, 65):
                step = p_r if n >= 0 else p_l
                side = "nonneg" if n >= 0 else "neg"
                ds = to_digits(n, sub.length)
                base_len = len(ds) + (-len(ds)) % step
                padded = pad(ds, base_len + 2 * step)
                assert direct.run_word(padded.digits, side) == direct.run(n)
                assert reverse.run_word(padded.digits, side) == reverse.run(n)

        # subsequence/column duality on a window of length >= 4096
        half = 2048
        window = window_for_range(pd2, -half * 4, half * 4 + 3)
        word = tuple(map(window.letter, range(-half * 4, half * 4 + 4)))
        offset = half * 4
        for r in range(4):
            col = pd2.column(r)
            for n in range(-half, half):
                expected = pd2.alphabet[col.table[pd2.alphabet.index(word[offset + n])]]
                assert word[offset + 4 * n + r] == expected

        # minimize idempotence
        for sub in (pd2, bigdiag):
            machine = minimize(build_reverse_semigroup(sub))
            assert minimize(machine).num_states == machine.num_states
            assert equivalent(machine, minimize(machine)).equal

        # fixed-point substitution invariance
        for sub in (pd2, bigdiag):
            p = sub.seed_period()
            factor = sub.length**p
            window = window_for_range(sub, -9, 9)
            ords = [window[n] for n in range(-9, 10)]
            for _ in range(p):
                ords = list(sub.apply(ords))
            expanded = window_for_range(sub, -9 * factor, 9 * factor + factor - 1)
            assert ords == [expanded[n] for n in range(-9 * factor, 9 * factor + factor)]
