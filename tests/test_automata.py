import json
import sys
from dataclasses import replace

import pytest

from substratum import (
    Dfao,
    InputError,
    SeedMissing,
    StateExplosion,
    Substitution,
    UnknownLetter,
    build_direct,
    build_reverse_semigroup,
    closure,
    equivalent,
    minimize,
    reverse_and_determinize,
    structure_semigroup,
    to_digits,
    pad,
    window_for_range,
)
from substratum.substitution import word_budget
from substratum import automata, semigroup
from substratum.automata import _reachable_order


def delta_by_letter(machine):
    names = machine.labels
    return {
        names[s]: tuple(names[machine.delta[s][d]] for d in range(machine.ell))
        for s in range(machine.num_states)
    }


def test_direct_bigdiag_matches_figure(bigdiag):
    machine = build_direct(bigdiag)
    assert delta_by_letter(machine) == {
        "a": ("a", "c", "b"),
        "b": ("b", "a", "a"),
        "c": ("b", "b", "a"),
    }
    assert machine.labels[machine.initial_nonneg] == "a"
    assert machine.labels[machine.initial_neg] == "b"
    assert machine.num_states == 3


def test_direct_initial_zero_loop(pd2, bigdiag):
    for sub in (pd2, bigdiag):
        machine = build_direct(sub)
        assert machine.delta[machine.initial_nonneg][0] == machine.initial_nonneg


def test_direct_runs(bigdiag):
    machine = build_direct(bigdiag)
    assert machine.run(0) == "a"
    assert machine.run(-1) == "b"
    assert machine.run(5) == "a"
    assert machine.run(-2) == "c"


def test_direct_needs_seed():
    bare = Substitution.from_parts(["a", "b"], 2, {"a": "ab", "b": "aa"})
    with pytest.raises(SeedMissing):
        build_direct(bare)


@pytest.mark.parametrize("span", [700])
def test_machines_agree_with_oracle(pd, pd2, bigdiag, thue_morse, span):
    for sub in (pd, pd2, bigdiag, thue_morse):
        window = window_for_range(sub, -span, span)
        direct = build_direct(sub)
        reverse = build_reverse_semigroup(sub)
        for n in range(-span, span + 1):
            expected = window.letter(n)
            assert direct.run(n) == expected
            assert reverse.run(n) == expected
        letters = tuple(window.letter(n) for n in range(-span, span + 1))
        assert direct.run_range(-span, span) == reverse.run_range(-span, span) == letters


def test_run_range_is_run_over_the_range(pd, pd2, bigdiag, thue_morse, periodic_right_seed, six_letter):
    machines = []
    for sub in (pd, pd2, bigdiag, thue_morse, periodic_right_seed, six_letter):
        for machine in (build_direct(sub), build_reverse_semigroup(sub)):
            machines += [machine, minimize(machine)]
    # a machine of more states than a byte holds
    assert build_reverse_semigroup(six_letter).num_states > 256
    assert build_direct(periodic_right_seed).pad_nonneg == 2  # a padded direct machine
    # a reverse machine given pads, which then apply as in run()
    machines.append(replace(build_reverse_semigroup(bigdiag), pad_nonneg=2, pad_neg=3))
    # a machine with no padding invariance, so every digit of every word counts
    for reading in ("direct", "reverse"):
        for pads in ((1, 1), (2, 3)):
            machines.append(
                Dfao(
                    ell=3,
                    labels=("p", "q", "r"),
                    delta=((1, 2, 2), (2, 0, 0), (0, 1, 1)),
                    initial_nonneg=0,
                    initial_neg=1,
                    out_nonneg=("a", "b", "a"),
                    out_neg=("b", "a", "a"),
                    reading=reading,
                    pad_nonneg=pads[0],
                    pad_neg=pads[1],
                )
            )
    for machine in machines:
        ell = machine.ell
        ranges = [(-1, -1), (0, 0), (3, 2), (-40, 40)]
        for k in (1, 2, 3, 4):
            p = ell**k
            ranges += [(p - 2, p + 1), (-p - 2, -p + 1), (-p, p - 1)]
        for lo, hi in ranges:
            assert machine.run_range(lo, hi) == tuple(machine.run(n) for n in range(lo, hi + 1))


def test_reverse_semigroup_pd2_is_the_three_state_machine(pd2):
    machine = build_reverse_semigroup(pd2)
    assert machine.num_states == 3
    labels = machine.labels
    assert set(labels) == {"(a,b)^T", "(a,a)^T", "(b,b)^T"}
    ident = labels.index("(a,b)^T")
    const_a = labels.index("(a,a)^T")
    const_b = labels.index("(b,b)^T")
    assert machine.initial_nonneg == ident
    assert machine.delta[ident] == (const_a, const_b, const_a, ident)
    for constant in (const_a, const_b):
        assert machine.delta[constant] == (constant,) * 4


def test_reverse_run_zero_is_right_seed(pd2, bigdiag):
    for sub in (pd2, bigdiag):
        machine = build_reverse_semigroup(sub)
        assert machine.run(0) == sub.alphabet[sub.seed[1]]
        assert machine.run(-1) == sub.alphabet[sub.seed[0]]


def test_reverse_semigroup_labels_cover_generated_monoid(fixtures, coprime_seed_periods):
    from substratum import ColumnMap

    periods = set()
    for sub in fixtures + [coprime_seed_periods]:
        machine, maps = automata._reverse_semigroup(sub, word_budget())
        assert machine is build_reverse_semigroup(sub)
        monoid = closure(list(sub.columns()) + [ColumnMap.identity(sub.alphabet)])
        # the states project onto the orbit's maps, one state per (map, phase),
        # labelled vector@phase when the seed period exceeds 1
        assert set(maps) == set(monoid.elements), str(sub)
        period = sub.seed_period()
        labels = machine.labels
        assert len(set(labels)) == len(labels) == machine.num_states, str(sub)
        for label, state_map in zip(labels, maps):
            vector, _, phase = label.partition("@")
            assert vector == state_map.vector(), str(sub)
            assert (phase == "") == (period == 1), str(sub)
            assert period == 1 or 0 <= int(phase) < period, str(sub)
        periods.add(period)
    assert {1, 2, 15} <= periods


def test_state_budget_counts_machine_states_not_maps(bigdiag, monkeypatch):
    # bigdiag has 24 orbit maps and, at seed period 2, 48 machine states
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "24")
    closure(bigdiag.columns())
    with pytest.raises(StateExplosion, match="closure exceeds state budget 24"):
        build_reverse_semigroup(bigdiag)
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "48")
    closure(bigdiag.columns())
    machine, maps = automata._reverse_semigroup(bigdiag, 48)
    assert machine is build_reverse_semigroup(bigdiag)
    assert (len(set(maps)), machine.num_states) == (24, 48)


def test_reverse_state_budget(bigdiag, monkeypatch):
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "5")
    with pytest.raises(StateExplosion):
        build_reverse_semigroup(bigdiag)
    monkeypatch.delenv("SUBSTRATUM_BUDGET")
    build_reverse_semigroup(bigdiag)
    # the shared machine is kept per budget, so a lower budget still applies
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "5")
    with pytest.raises(StateExplosion):
        build_reverse_semigroup(bigdiag)


def test_reverse_machine_is_built_once_per_substitution(pd2, bigdiag):
    from substratum import toeplitz

    for sub in (pd2, bigdiag):
        machine = build_reverse_semigroup(sub)
        assert machine is build_reverse_semigroup(sub)
        assert machine is toeplitz.gate(sub).machine


def test_reverse_and_determinize_one_state(constant_sub):
    machine = reverse_and_determinize(build_direct(constant_sub))
    assert machine.num_states == 1
    assert machine.run(12) == "a"
    assert machine.run(-12) == "a"


def test_reverse_and_determinize_matches_semigroup(pd, pd2, bigdiag):
    for sub in (pd, pd2, bigdiag):
        semigroup_machine = build_reverse_semigroup(sub)
        determinized = reverse_and_determinize(build_direct(sub))
        result = equivalent(semigroup_machine, determinized)
        assert result.equal


def test_determinize_requires_direct(pd2):
    machine = build_reverse_semigroup(pd2)
    with pytest.raises(ValueError):
        reverse_and_determinize(machine)


def test_minimize_pd2_reverse_is_already_minimal(pd2):
    machine = build_reverse_semigroup(pd2)
    assert minimize(machine).num_states == 3


def test_minimize_merges_duplicate_states():
    # two copies of the same constant-output state must collapse
    machine = Dfao(
        ell=2,
        labels=("p", "q", "r"),
        delta=((1, 2), (1, 2), (2, 1)),
        initial_nonneg=0,
        initial_neg=0,
        out_nonneg=("x", "y", "y"),
        out_neg=("x", "y", "y"),
        reading="reverse",
    )
    smaller = minimize(machine)
    assert smaller.num_states == 2


def test_minimize_idempotent(pd, pd2, bigdiag, thue_morse):
    for sub in (pd, pd2, bigdiag, thue_morse):
        for machine in (
            minimize(build_reverse_semigroup(sub)),
            minimize(reverse_and_determinize(build_direct(sub))),
        ):
            again = minimize(machine)
            assert again.num_states == machine.num_states
            assert equivalent(machine, again).equal


def dict_moore_minimize(dfao):
    """Moore refinement on dicts, as minimize ran before its list rewrite: the reference."""
    states = _reachable_order(dfao.delta, dfao.initial_nonneg, dfao.initial_neg)

    def out_key(s: int):
        return (dfao.out_nonneg[s], dfao.out_neg[s])

    block: dict[int, int] = {}
    keys = sorted({out_key(s) for s in states})
    key_index = {k: i for i, k in enumerate(keys)}
    for s in states:
        block[s] = key_index[out_key(s)]
    while True:
        signatures: dict[tuple, int] = {}
        new_block: dict[int, int] = {}
        for s in states:
            sig = (block[s], tuple(block[dfao.delta[s][d]] for d in range(dfao.ell)))
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[s] = signatures[sig]
        if len(signatures) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    block_order: list[int] = []
    rep: dict[int, int] = {}
    for s in states:
        b = block[s]
        if b not in rep:
            rep[b] = s
            block_order.append(b)
    renum = {b: i for i, b in enumerate(block_order)}
    delta = tuple(
        tuple(renum[block[dfao.delta[rep[b]][d]]] for d in range(dfao.ell)) for b in block_order
    )
    return Dfao(
        ell=dfao.ell,
        labels=tuple(dfao.labels[rep[b]] for b in block_order),
        delta=delta,
        initial_nonneg=renum[block[dfao.initial_nonneg]],
        initial_neg=renum[block[dfao.initial_neg]],
        out_nonneg=tuple(dfao.out_nonneg[rep[b]] for b in block_order),
        out_neg=tuple(dfao.out_neg[rep[b]] for b in block_order),
        reading=dfao.reading,
        pad_nonneg=dfao.pad_nonneg,
        pad_neg=dfao.pad_neg,
    )


def fixture_machines(subs):
    """The direct, reverse and determinized machine of every substitution."""
    for sub in subs:
        direct = build_direct(sub)
        yield from (direct, build_reverse_semigroup(sub), reverse_and_determinize(direct))


def toolkit_cache_clears():
    """cache_clear of every lru_cache in the toolkit's modules, found the way
    the benchmark worker finds them before each operation."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "substratum" or name.startswith("substratum."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    found[id(value)] = clear
    return list(found.values())


ALL_FIXTURES = (
    "pd", "pd2", "bigdiag", "thue_morse", "constant_sub", "periodic_right_seed", "height_two", "six_letter",
)


def test_minimize_matches_dict_moore_on_fixtures(request):
    subs = [request.getfixturevalue(name) for name in ALL_FIXTURES]
    for machine in fixture_machines(subs):
        assert minimize(machine) == dict_moore_minimize(machine)
        # the kernel's one-sided key: each state's non-negative output on both sides
        one_sided = replace(machine, out_neg=machine.out_nonneg)
        assert minimize(one_sided) == dict_moore_minimize(one_sided)


def test_minimize_matches_dict_moore_with_unreachable_states():
    # states 3 and 4 are never reached; 1 and 2 are equivalent, and 2, the
    # negative initial state, comes first in the BFS order
    machine = Dfao(
        ell=2,
        labels=("p", "q", "r", "s", "t"),
        delta=((1, 2), (0, 1), (0, 2), (4, 0), (3, 3)),
        initial_nonneg=0,
        initial_neg=2,
        out_nonneg=("x", "y", "y", "x", "y"),
        out_neg=("y", "x", "x", "y", "y"),
        reading="reverse",
    )
    smaller = minimize(machine)
    assert smaller == dict_moore_minimize(machine)
    assert smaller.labels == ("p", "r")


def test_minimize_matches_dict_moore_on_a_padded_machine(periodic_right_seed):
    machine = replace(build_reverse_semigroup(periodic_right_seed), pad_nonneg=2, pad_neg=3)
    assert minimize(machine) == dict_moore_minimize(machine)


def test_one_orbit_per_substitution(fixtures):
    periods = set()
    for sub in fixtures:
        clears = toolkit_cache_clears()
        assert semigroup._orbit.cache_clear in clears
        for clear in clears:
            clear()
        build_reverse_semigroup(sub)
        reverse_and_determinize(build_direct(sub))
        closure(sub.columns())
        structure_semigroup(sub)
        # the machines add the word-length phase on top of the one map orbit
        assert semigroup._orbit.cache_info().misses == 1, str(sub)
        periods.add(min(sub.seed_period(), 2))
    assert periods == {1, 2}


def test_one_moore_run_per_machine_structure(fixtures):
    for sub in fixtures:
        clears = toolkit_cache_clears()
        assert automata._partition.cache_clear in clears
        for clear in clears:
            clear()
        reverse = build_reverse_semigroup(sub)
        determinized = reverse_and_determinize(build_direct(sub))
        assert reverse.labels != determinized.labels
        a, b = minimize(reverse), minimize(determinized)
        assert automata._partition.cache_info().misses == 1
        assert a == dict_moore_minimize(reverse)
        assert b == dict_moore_minimize(determinized)


def test_semigroup_machine_of_the_simplified_form_is_minimal(fixtures, random_inputs, machine_slice):
    # the paper's claim; it needs primitivity: twelve of the non-primitive
    # random inputs, with letters that never occur, give machines that merge
    subs = fixtures + random_inputs + machine_slice
    primitive = [sub for sub in subs if sub.is_primitive()]
    assert len(primitive) >= 100
    for sub in primitive:
        machine = build_reverse_semigroup(sub.simplify()[0])
        assert minimize(machine).num_states == machine.num_states, str(sub)


def test_minimal_machines_have_equal_size(pd2, bigdiag):
    for sub in (pd2, bigdiag):
        a = minimize(build_reverse_semigroup(sub))
        b = minimize(reverse_and_determinize(build_direct(sub)))
        assert a.num_states == b.num_states


def test_equivalent_self(pd2):
    machine = build_reverse_semigroup(pd2)
    result = equivalent(machine, machine)
    assert result.equal and result.witness is None


def next_letter(sub, letter: str) -> str:
    """The letter after ``letter`` in the alphabet, cyclically: never ``letter`` itself."""
    letters = sub.alphabet.letters
    return letters[(letters.index(letter) + 1) % len(letters)]


def test_equivalent_detects_flipped_output(pd2):
    dfao = build_reverse_semigroup(pd2)
    for state in range(dfao.num_states):
        flipped = Dfao(
            ell=dfao.ell,
            labels=dfao.labels,
            delta=dfao.delta,
            initial_nonneg=dfao.initial_nonneg,
            initial_neg=dfao.initial_neg,
            out_nonneg=tuple(
                next_letter(pd2, o) if s == state else o for s, o in enumerate(dfao.out_nonneg)
            ),
            out_neg=dfao.out_neg,
            reading=dfao.reading,
        )
        result = equivalent(dfao, flipped)
        assert not result.equal
        assert dfao.run(result.witness) != flipped.run(result.witness)


def test_equivalent_detects_flipped_negative_output(bigdiag, periodic_right_seed):
    # both machines are direct, so both are reversed; the second is padded
    assert build_direct(periodic_right_seed).pad_nonneg == 2
    for sub, state in ((bigdiag, 2), (periodic_right_seed, 0)):
        dfao = build_direct(sub)
        flipped = Dfao(
            ell=dfao.ell,
            labels=dfao.labels,
            delta=dfao.delta,
            initial_nonneg=dfao.initial_nonneg,
            initial_neg=dfao.initial_neg,
            out_nonneg=dfao.out_nonneg,
            out_neg=tuple(
                next_letter(sub, o) if s == state else o for s, o in enumerate(dfao.out_neg)
            ),
            reading=dfao.reading,
            pad_nonneg=dfao.pad_nonneg,
            pad_neg=dfao.pad_neg,
        )
        result = equivalent(dfao, flipped)
        assert not result.equal and result.witness < 0
        assert dfao.run(result.witness) != flipped.run(result.witness)
        assert equivalent(dfao, replace(dfao, labels=tuple(reversed(dfao.labels)))).equal


def test_equivalent_across_readings_is_exact(pd, pd2, bigdiag):
    for sub in (pd, pd2, bigdiag):
        direct, reverse = build_direct(sub), build_reverse_semigroup(sub)
        for result in (equivalent(direct, reverse), equivalent(reverse, direct)):
            assert result.equal and result.witness is None
    direct = build_direct(pd2)
    flipped = replace(direct, out_nonneg=tuple(next_letter(pd2, o) for o in direct.out_nonneg))
    result = equivalent(flipped, build_reverse_semigroup(pd2))
    assert not result.equal
    window = window_for_range(pd2, result.witness, result.witness)
    assert flipped.run(result.witness) != window.letter(result.witness)


def test_equivalent_across_readings_finds_a_deep_witness():
    # a direct machine that counts word length: only 15-digit (and longer)
    # non-negative inputs reach the b state, and the least such n is 2^14
    chain = Dfao(
        ell=2,
        labels=tuple(f"q{i}" for i in range(16)),
        delta=tuple((min(i + 1, 15),) * 2 for i in range(16)),
        initial_nonneg=0,
        initial_neg=0,
        out_nonneg=("a",) * 15 + ("b",),
        out_neg=("a",) * 16,
        reading="direct",
    )
    constant = Dfao(
        ell=2,
        labels=("c",),
        delta=((0, 0),),
        initial_nonneg=0,
        initial_neg=0,
        out_nonneg=("a",),
        out_neg=("a",),
        reading="reverse",
    )
    for result in (equivalent(chain, constant), equivalent(constant, chain)):
        assert not result.equal and result.witness == 16384
    assert chain.run(16384) != constant.run(16384)


def test_padding_invariance(pd, pd2, bigdiag, thue_morse):
    for sub in (pd, pd2, bigdiag, thue_morse):
        direct = build_direct(sub)
        reverse = build_reverse_semigroup(sub)
        p_r, p_l = sub.seed_periods()
        for n in (-19, -6, -1, 0, 1, 9, 23):
            step = p_r if n >= 0 else p_l
            side = "nonneg" if n >= 0 else "neg"
            ds = to_digits(n, sub.length)
            base_len = len(ds) + (-len(ds)) % step
            for extra in (0, step, 2 * step):
                padded = pad(ds, base_len + extra)
                assert direct.run_word(padded.digits, side) == direct.run(n)
                assert reverse.run_word(padded.digits, side) == reverse.run(n)
        # reverse machines tolerate arbitrary padding, not just full periods
        for n in (0, 5, -3):
            side = "nonneg" if n >= 0 else "neg"
            ds = to_digits(n, sub.length)
            for extra in (1, 2, 3):
                padded = pad(ds, len(ds) + extra)
                assert reverse.run_word(padded.digits, side) == reverse.run(n)


def test_run_word_rejects_an_unknown_side(pd2):
    # a side other than "nonneg" and "neg" is an error, not the negative side
    for machine in (build_direct(pd2), build_reverse_semigroup(pd2)):
        for side in ("pos", "negative", ""):
            with pytest.raises(ValueError, match="side must be 'nonneg' or 'neg'"):
                machine.run_word((1,), side)


def test_json_dict_is_the_machine(pd2, bigdiag, periodic_right_seed):
    assert build_direct(periodic_right_seed).pad_nonneg == 2  # a padded direct machine
    for sub in (pd2, bigdiag, periodic_right_seed):
        for machine in (build_direct(sub), build_reverse_semigroup(sub)):
            names = machine.state_names()
            data = json.loads(json.dumps(machine.to_json_dict()))
            assert data["states"] == list(names)
            assert data["ell"] == machine.ell
            assert data["delta"] == {
                names[s]: {str(d): names[t] for d, t in enumerate(row)}
                for s, row in enumerate(machine.delta)
            }
            for side, outputs in (("nonneg", machine.out_nonneg), ("neg", machine.out_neg)):
                assert data["outputs"][side] == {names[s]: outputs[s] for s in range(machine.num_states)}
            assert data["initial"] == {
                "nonneg": names[machine.initial_nonneg],
                "neg": names[machine.initial_neg],
            }
            assert data["reading"] == machine.reading
            pads = [machine.pad_nonneg, machine.pad_neg]
            assert data.get("pads", [1, 1]) == pads
            assert ("pads" in data) == (pads != [1, 1])


@pytest.mark.parametrize(
    "changes, error",
    [
        ({"initial_nonneg": 5}, UnknownLetter),
        ({"initial_nonneg": -1}, UnknownLetter),
        ({"initial_neg": 2}, UnknownLetter),
        ({"out_neg": ("a",)}, UnknownLetter),
        ({"out_neg": ("a", "b", "a")}, UnknownLetter),
        ({"reading": "Direct"}, InputError),
        ({"reading": "both"}, InputError),
        ({"pad_nonneg": 0}, InputError),
        ({"pad_neg": -1}, InputError),
        ({"initial_neg": None}, InputError),
        ({"out_neg": None}, InputError),
        ({"initial_neg": None, "out_neg": None}, InputError),
    ],
    ids=[
        "initial-nonneg-past-the-rows",
        "negative-initial-nonneg",
        "initial-neg-past-the-rows",
        "short-out-neg",
        "long-out-neg",
        "capitalised-reading",
        "unknown-reading",
        "zero-pad",
        "negative-pad",
        "no-initial-neg",
        "no-out-neg",
        "no-negative-side",
    ],
)
def test_dfao_refuses_a_machine_that_cannot_run(changes, error):
    machine = Dfao(
        ell=2,
        labels=("p", "q"),
        delta=((0, 1), (1, 0)),
        initial_nonneg=0,
        initial_neg=1,
        out_nonneg=("a", "b"),
        out_neg=("b", "a"),
        reading="direct",
    )
    with pytest.raises(error):
        replace(machine, **changes)


def test_dot_export_contains_figure_edges(bigdiag):
    dot = build_direct(bigdiag).to_dot()
    assert '"a" -> "c" [label="1"]' in dot
    assert '"b" -> "a" [label="1,2"]' in dot
    assert '"c" -> "b" [label="0,1"]' in dot
    assert "ℕ₀" in dot and "−ℕ" in dot
    assert dot == build_direct(bigdiag).to_dot()  # deterministic
