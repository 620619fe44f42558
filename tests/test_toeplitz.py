import random
from array import array
from dataclasses import replace

import pytest

from substratum import (
    NontrivialHeight,
    NotToeplitz,
    Overflow,
    StateExplosion,
    Substitution,
    SubstratumError,
    Window,
    aperiodic_in_range,
    build_reverse_semigroup,
    decide_per,
    reduced_graph,
    sample_progression,
    to_digits,
    window_for_range,
)
from substratum import toeplitz
from substratum.digits import to_int
from substratum.toeplitz import (
    APERIODIC,
    CERTIFY_DEPTH,
    PERIODIC,
    CycleInfo,
    PeriodicityVerdict,
    decide_range,
    gate,
)

BIGDIAG_APERIODIC_50 = (
    -50, -49, -48, -47, -46, -42, -41, -40, -36, -35, -34, -33, -32, -31, -30,
    -29, -28, -27, -26, -25, -24, -23, -22, -21, -20, -19, -18, -17, -16, -14,
    -12, -11, -10, -9, -8, -7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7,
    8, 9, 10, 11, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
    29, 30, 31, 32, 33, 34, 35, 39, 40, 41, 45, 46, 47, 48, 49, 50,
)


def test_decide_per_pd2_values(pd2):
    v = decide_per(pd2, 0)
    assert v.is_periodic() and v.period == 4 and v.letter == "a"
    v = decide_per(pd2, 7)
    assert v.is_periodic() and v.period == 16 and v.letter == "b"
    v = decide_per(pd2, 3)
    assert v.is_periodic() and v.period == 16 and v.letter == "a"
    v = decide_per(pd2, -1)
    assert not v.is_periodic() and v.period is None and v.letter is None


def test_decide_per_periodic_evidence_is_constant(pd2):
    v = decide_per(pd2, 6)
    assert v.state_pos.image_size() == 1
    assert v.state_neg.image_size() == 1
    assert v.state_pos.table[0] == pd2.alphabet.index(v.letter)


def test_decide_per_on_the_unsimplified_form(pd):
    # base-2 reading gives the finer certified periods
    assert decide_per(pd, 0).period == 2
    v = decide_per(pd, 7)
    assert v.period == 16 and v.letter == "b"
    assert not decide_per(pd, -1).is_periodic()


def test_periodic_aperiodic_membership_agrees_across_powers(pd, pd2):
    for n in range(-40, 41):
        assert decide_per(pd, n).is_periodic() == decide_per(pd2, n).is_periodic()


def test_aperiodic_in_range_pd2(pd2):
    report = aperiodic_in_range(pd2, -100, 100, certify=True)
    assert report.aperiodic == (-1,)
    assert report.inconsistencies == ()
    assert gate(pd2).aperiodic
    assert report.summary() == "Aper ∩ [-100,100] = {-1}"


def test_aperiodic_in_range_partition(pd2):
    report = aperiodic_in_range(pd2, -20, 20)
    periodic = {v.index for v in decide_range(pd2, -20, 20) if v.is_periodic()}
    assert periodic | set(report.aperiodic) == set(range(-20, 21))
    assert periodic & set(report.aperiodic) == set()


def test_aperiodic_in_range_of_an_empty_range(pd2, bigdiag):
    # an empty range makes no claim, so certifying it builds no window: the
    # first l=5 input of coincidence_corpus(1) that the gate admits would need
    # one of 2*5^9 letters, beyond the default budget
    wide = Substitution.from_parts(
        ["a", "b", "c", "d"], 5, {"a": "cbbcb", "b": "ccccb", "c": "daabd", "d": "cbbcb"}, seed=["b", "c"]
    )
    for sub in (pd2, bigdiag, wide):
        for lo, hi in ((1, 0), (5, 3)):
            for certify in (False, True):
                report = aperiodic_in_range(sub, lo, hi, certify=certify)
                assert report == toeplitz.RangeReport(lo, hi, (), certify, ())
                assert report.summary() == f"Aper ∩ [{lo},{hi}] = {{}}"


def test_thue_morse_refused(thue_morse):
    with pytest.raises(NotToeplitz):
        decide_per(thue_morse, 0)
    with pytest.raises(NotToeplitz):
        aperiodic_in_range(thue_morse, -5, 5)


def test_height_two_refused(height_two):
    with pytest.raises(NontrivialHeight):
        decide_per(height_two, 0)


def test_bigdiag_fixed_point_is_far_from_toeplitz(bigdiag):
    report = aperiodic_in_range(bigdiag, -50, 50, certify=True)
    assert report.aperiodic == BIGDIAG_APERIODIC_50
    assert report.inconsistencies == ()


def test_single_letter_alphabet_is_all_periodic(constant_sub):
    v = decide_per(constant_sub, 9)
    assert v.is_periodic() and v.period == 1 and v.letter == "a"


def test_reduced_graph_pd2(pd2):
    graph = reduced_graph(pd2)
    assert graph.vertex_labels == ("(a,b)^T",)
    assert graph.removed == 2
    vertex = graph.vertices[0]
    assert graph.edges == ((vertex, 3, vertex),)
    assert len(graph.cycles) == 1
    cycle = graph.cycles[0]
    assert cycle.cycle_digits == (3,)
    assert cycle.prefix_digits == ()
    assert cycle.address == -1


def test_reduced_graph_walks_the_gate_machine(pd, pd2, bigdiag):
    # the Toeplitz layer builds one reverse machine per substitution
    for sub in (pd, pd2, bigdiag):
        assert reduced_graph(sub).machine is gate(sub).machine


def test_periodic_right_seed_verdicts_certify(periodic_right_seed, late_return):
    # the reverse machines carry a word-length phase, on the right side for
    # the first and on the left for the second, which has height 1
    for sub in (periodic_right_seed, late_return):
        report = aperiodic_in_range(sub, -200, 200, certify=True)
        assert report.inconsistencies == ()


def test_gate_finds_aperiodic_fixed_points(pd, pd2, bigdiag, periodic_right_seed, late_return):
    for sub in (pd, pd2, bigdiag, periodic_right_seed, late_return):
        assert gate(sub).aperiodic


def least_period(letters):
    return next(p for p in range(1, len(letters)) if letters[p:] == letters[:-p])


def test_gate_finds_periodic_fixed_points(periodic_coincidence):
    for sub, period in periodic_coincidence:
        assert not gate(sub).aperiodic
        assert reduced_graph(sub).cycles == ()
        letters = window_for_range(sub, -4096, 4096).letters
        assert least_period(letters) == period


def test_gate_aperiodicity_agrees_with_the_oracle(random_inputs):
    verdicts = set()
    for sub in random_inputs:
        try:
            aperiodic = gate(sub).aperiodic
            window = window_for_range(sub, -20000, 20000)
            letters = bytes(window.letters[-20000 - window.lo : 20001 - window.lo])
        except SubstratumError:
            continue
        periodic_window = any(letters[p:] == letters[:-p] for p in range(1, len(letters) // 8))
        assert aperiodic != periodic_window, str(sub)
        verdicts.add(aperiodic)
    assert verdicts == {True, False}


def test_reduced_graph_pd_original_spells_minus_one(pd):
    graph = reduced_graph(pd)
    addresses = {c.address for c in graph.cycles}
    assert addresses == {-1}


def test_reduced_graph_vertices_are_never_constant(bigdiag):
    graph = reduced_graph(bigdiag)
    maps = gate(bigdiag).maps
    for v in graph.vertices:
        assert maps[v].image_size() >= 2
    for _, _, target in graph.edges:
        assert target in set(graph.vertices)


def test_aperiodic_walks_stay_in_reduced_graph(bigdiag):
    graph = reduced_graph(bigdiag)
    machine = graph.machine
    vertices = set(graph.vertices)
    tail_steps = machine.num_states + 1
    for n in range(-30, 31):
        digits = to_digits(n, bigdiag.length)
        tail = 0 if n >= 0 else bigdiag.length - 1
        state = machine.initial_nonneg
        inside = state in vertices
        for d in tuple(reversed(digits)) + (tail,) * tail_steps:
            state = machine.delta[state][d]
            inside = inside and state in vertices
        assert inside == (not decide_per(bigdiag, n).is_periodic())


def test_reduced_graph_refuses_non_coincidence(thue_morse):
    with pytest.raises(NotToeplitz):
        reduced_graph(thue_morse)


def unpruned_labelled_cycles(vertices, adjacency, max_length, max_count):
    """The bounded simple-cycle search that reduced_graph once ran: the reference."""
    cycles = []
    for anchor in sorted(vertices):
        stack = [(anchor, (), frozenset())]
        while stack:
            v, digit_seq, visited = stack.pop()
            for d, t in sorted(adjacency[v], reverse=True):
                if t == anchor:
                    cycles.append((anchor, digit_seq + (d,)))
                    if len(cycles) >= max_count:
                        return cycles
                elif t > anchor and t not in visited and len(digit_seq) + 1 < max_length:
                    stack.append((t, digit_seq + (d,), visited | {t}))
    return cycles


def reference_cycles(sub, max_length=12, max_count=500):
    """The cycles with an integer address among those of the bounded search,
    each entered by its shortest access path, in reduced_graph's order; and
    whether the search stopped at ``max_count``."""
    graph = reduced_graph(sub)
    adjacency = {v: [] for v in graph.vertices}
    for s, d, t in graph.edges:
        adjacency[s].append((d, t))
    initial = graph.machine.initial_nonneg
    paths = {initial: ()} if initial in adjacency else {}
    queue = list(paths)
    for s in queue:  # breadth first: the list grows behind the cursor
        for d, t in adjacency[s]:
            if t not in paths:
                paths[t] = paths[s] + (d,)
                queue.append(t)
    found = unpruned_labelled_cycles(list(graph.vertices), adjacency, max_length, max_count)
    ell = sub.length
    infos = []
    for anchor, digit_seq in found:
        if anchor not in paths:
            continue
        prefix = paths[anchor]
        if set(digit_seq) == {0}:
            address = to_int(prefix[::-1], ell)
        elif set(digit_seq) == {ell - 1}:
            address = to_int((ell - 1,) + prefix[::-1], ell, negative=True)
        else:
            continue  # an ell-adic point, not an integer
        infos.append(CycleInfo(anchor, prefix, digit_seq, address))
    infos.sort(key=lambda c: (len(c.cycle_digits), c.cycle_digits, c.prefix_digits))
    return tuple(infos), len(found) >= max_count


def admitted(subs):
    """The inputs that the gate admits."""
    kept = []
    for sub in subs:
        try:
            gate(sub)
        except SubstratumError:
            continue
        kept.append(sub)
    return kept


def admitted_random_substitutions(seed, count, max_states=128):
    """Seeded random 4..6-letter substitutions that the gate admits, with
    reverse machines below ``max_states`` states."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        letters = "abcdef"[: rng.randint(4, 6)]
        length = rng.randint(2, 4)
        rules = {a: "".join(rng.choice(letters) for _ in range(length)) for a in letters}
        a_l = a_r = "a"
        for _ in letters:  # after |A| steps both letters lie on a cycle of their column
            a_l, a_r = rules[a_l][-1], rules[a_r][0]
        sub = Substitution.from_parts(list(letters), length, rules, seed=[a_l, a_r])
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("SUBSTRATUM_BUDGET", str(max_states))
                build_reverse_semigroup(sub)
            gate(sub)
        except SubstratumError:
            continue
        found.append(sub)
    return found


def assert_tail_cycles_complete(sub, span=300):
    """decide_per calls n aperiodic exactly when the walk over n's canonical
    digits, then its tail digit forever, enters a listed cycle before a
    constant state; every listed address is aperiodic."""
    graph = reduced_graph(sub)
    delta = graph.machine.delta
    constant = gate(sub).constant
    on_cycle = set()  # (state, digit) on a listed cycle of that digit's map
    for c in graph.cycles:
        s = c.entry_state
        for d in c.cycle_digits:
            on_cycle.add((s, d))
            s = delta[s][d]
        assert s == c.entry_state
        assert not decide_per(sub, c.address).is_periodic(), (str(sub), c)
    for n in range(-span, span + 1):
        tail = 0 if n >= 0 else sub.length - 1
        s = graph.machine.initial_nonneg
        for d in reversed(to_digits(n, sub.length)):
            s = delta[s][d]
        for _ in range(len(delta) + 1):  # a constant state or a cycle within |states| steps
            if constant[s] or (s, tail) in on_cycle:
                break
            s = delta[s][tail]
        entered = not constant[s] and (s, tail) in on_cycle
        assert entered == (not decide_per(sub, n).is_periodic()), (str(sub), n)


def test_tail_cycles_are_complete_on_fixtures_and_random_inputs(
    fixtures, late_return, periodic_coincidence, random_inputs
):
    subs = admitted(fixtures + [late_return] + [sub for sub, _ in periodic_coincidence] + random_inputs)
    assert len(subs) >= 20
    for sub in subs:
        assert_tail_cycles_complete(sub)


def test_tail_cycles_are_complete_on_a_corpus_slice(corpus):
    subs = admitted([entry.sub for entry in corpus.coincidence_corpus(1)[:40]])
    assert len(subs) >= 20
    for sub in subs:
        assert_tail_cycles_complete(sub)


def test_tail_cycles_hold_every_bounded_cycle_with_an_integer_address(
    fixtures, late_return, periodic_coincidence
):
    subs = admitted(fixtures + [late_return] + [sub for sub, _ in periodic_coincidence])
    subs += admitted_random_substitutions(seed=6, count=10)
    cut = 0
    for sub in subs:
        expected, stopped = reference_cycles(sub)
        cycles = reduced_graph(sub).cycles
        assert set(expected) <= set(cycles), str(sub)
        if stopped:
            cut += 1
        else:
            assert expected == cycles, str(sub)
    assert cut > 0  # some references stop at 500, and the tail cycles go on


def tail_walk_verdict(sub, n):
    """decide_per with its own seen-set walk after the canonical digits,
    instead of the gate's tail tables: the reference."""
    g = gate(sub)
    delta = g.machine.delta
    digits = tuple(reversed(to_digits(n, sub.length)))
    tail = 0 if n >= 0 else sub.length - 1
    s = k = 0
    seen = set()
    while not g.constant[s]:
        if k < len(digits):
            t = delta[s][digits[k]]
        else:
            seen.add(s)
            t = delta[s][tail]
            if t in seen:  # the tail walk cycles without reaching a constant
                break
        s, k = t, k + 1
    state = g.maps[s]
    periodic = g.constant[s]
    return PeriodicityVerdict(
        index=n,
        status=PERIODIC if periodic else APERIODIC,
        exponent=k if periodic else None,
        period=sub.length**k if periodic else None,
        letter=sub.alphabet[state.table[0]] if periodic else None,
        state_pos=state,
        state_neg=g.maps[delta[s][sub.length - 1]],
    )


def far_indices(ell, count=8):
    """Indices between ell^20 and ell^40 in size, on both sides of 0."""
    rng = random.Random(ell)
    far = [ell**20, ell**40, ell**40 - 1]
    far += [rng.randint(ell**20, ell**40) for _ in range(count)]
    return far + [-n for n in far]


def test_decide_per_matches_the_tail_walk(
    fixtures, late_return, periodic_coincidence, random_inputs, corpus
):
    subs = fixtures + [late_return] + [sub for sub, _ in periodic_coincidence] + random_inputs
    subs = admitted(subs + [entry.sub for entry in corpus.coincidence_corpus(1)[:40]])
    assert len(subs) >= 40
    aperiodic = 0
    for sub in subs:
        for n in list(range(-60, 61)) + far_indices(sub.length):
            verdict = decide_per(sub, n)
            assert verdict == tail_walk_verdict(sub, n), (str(sub), n)
            aperiodic += not verdict.is_periodic()
    assert aperiodic > 1000


def test_every_non_constant_state_is_live(
    fixtures, late_return, periodic_coincidence, random_inputs, corpus
):
    # constant states absorb and every state is reached from the identity, so
    # the live part that reduced_graph's access paths span needs no search
    subs = fixtures + [late_return] + [sub for sub, _ in periodic_coincidence] + random_inputs
    for sub in admitted(subs + [entry.sub for entry in corpus.coincidence_corpus(1)[:40]]):
        g = gate(sub)
        dfao = g.machine
        paths = toeplitz._shortest_paths(dfao.initial_nonneg, dfao.delta, g.constant)
        assert set(paths) == {s for s in range(dfao.num_states) if not g.constant[s]}, str(sub)


def per_index(sub, lo, hi):
    return tuple(decide_per(sub, n) for n in range(lo, hi + 1))


def power_ranges(ell, max_k=5):
    """Ranges on both sides of +-ell^k +- 1, single indices, an empty range
    and ranges lying wholly on one side of 0."""
    ranges = [(0, 0), (-1, -1), (-1, 0), (-7, -1), (1, 9), (1, 0)]
    for k in range(max_k + 1):
        p = ell**k
        ranges += [
            (-p - 1, p + 1),
            (-p + 1, p - 1),
            (p - 1, p + 1),
            (-p - 1, -p + 1),
            (p, p),
            (-p, -p),
            (-p - 1, -1),
            (1, p + 1),
        ]
    return ranges


def test_decide_range_matches_decide_per_on_fixtures(
    pd, pd2, bigdiag, periodic_right_seed, late_return, periodic_coincidence, constant_sub
):
    subs = [pd, pd2, bigdiag, periodic_right_seed, late_return, constant_sub]
    subs += [sub for sub, _ in periodic_coincidence]
    for sub in subs:
        for lo, hi in power_ranges(sub.length):
            assert decide_range(sub, lo, hi) == per_index(sub, lo, hi), (str(sub), lo, hi)


def test_decide_range_matches_decide_per_on_random_inputs(random_inputs):
    admitted = 0
    for sub in random_inputs:
        try:
            gate(sub)
        except SubstratumError:
            continue
        admitted += 1
        for lo, hi in power_ranges(sub.length, max_k=3) + [(-200, 200)]:
            assert decide_range(sub, lo, hi) == per_index(sub, lo, hi), (str(sub), lo, hi)
    assert admitted >= 10


def test_decide_range_refuses_a_range_wider_than_the_budget(monkeypatch, pd2):
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "100")
    with pytest.raises(Overflow, match="range of 101 indices exceeds budget 100"):
        decide_range(pd2, -50, 50)
    assert len(decide_range(pd2, -50, 49)) == 100


def test_gate_applies_a_changed_budget(monkeypatch, bigdiag):
    # the gate is kept per budget, as the machine is: a warm gate does not
    # answer under a budget its 48-state machine exceeds
    monkeypatch.delenv("SUBSTRATUM_BUDGET", raising=False)
    verdict = decide_per(bigdiag, 5)
    assert verdict.status == APERIODIC
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "3")
    with pytest.raises(StateExplosion):
        decide_per(bigdiag, 5)
    monkeypatch.delenv("SUBSTRATUM_BUDGET")
    assert decide_per(bigdiag, 5) == verdict


def test_decide_range_on_a_far_range(bigdiag, pd):
    # each residue class holds at most three indices once 3^(k+1) > 50, so the
    # far indices take decide_per's walk; a descent that never stopped would not end
    lo = 10**30
    assert decide_range(bigdiag, lo, lo + 50) == per_index(bigdiag, lo, lo + 50)
    assert decide_range(pd, -lo - 50, -lo) == per_index(pd, -lo - 50, -lo)


def per_index_inconsistencies(sub, lo, hi, verdicts, build=window_for_range):
    """The certification loop that samples every verdict on its own: the reference."""
    max_expo = max((v.exponent for v in verdicts if v.is_periodic()), default=0)
    reach = sub.length ** (max(max_expo, CERTIFY_DEPTH) + 3)
    window = build(sub, min(lo, -reach), max(hi, reach - 1))
    periodic_terms = 2 * sub.length**3
    inconsistencies = []
    for v in verdicts:
        if v.is_periodic():
            seen = sample_progression(window, v.index, v.period, max_terms=periodic_terms)
            if seen != {v.letter}:
                inconsistencies.append(
                    f"index {v.index}: claimed constant {v.letter} at step {v.period}, saw {sorted(seen)}"
                )
        else:
            for k in range(CERTIFY_DEPTH + 1):
                seen = sample_progression(window, v.index, sub.length**k, stop_at=2)
                if len(seen) < 2:
                    inconsistencies.append(
                        f"index {v.index}: claimed aperiodic but step {sub.length**k} shows only {sorted(seen)}"
                    )
    return inconsistencies


def corrupted(sub, verdicts):
    """Every fifth periodic verdict with its letter flipped, and every seventh
    with a wrong period: one power of ell smaller, or one larger, or off by one."""
    letters = sub.alphabet.letters
    out = []
    periodic = 0
    for v in verdicts:
        if v.is_periodic():
            periodic += 1
            if periodic % 5 == 0:
                other = letters[(letters.index(v.letter) + 1) % len(letters)]
                v = replace(v, letter=other)
            elif periodic % 7 == 0:
                choice = periodic // 7 % 3
                if choice == 0 and v.exponent > 0:
                    v = replace(v, period=v.period // sub.length)
                elif choice == 1:
                    v = replace(v, period=v.period * sub.length)
                else:
                    v = replace(v, period=v.period + 1)
        out.append(v)
    return out


def corrupted_classes(sub, classes, walked):
    """Every fifth residue class with its letter flipped, and every seventh
    with exponent k >= 1 with the period ell^(k-1); the walked verdicts as
    :func:`corrupted` leaves them.  A class of several members can only
    claim a period dividing its step, so the periods ell^(k+1) and ell^k + 1
    reach the certifier through the walked verdicts, which are one-member claims."""
    letters = sub.alphabet.letters
    out = []
    for i, (first, step, fields) in enumerate(classes, 1):
        if i % 5 == 0:
            fields = {**fields, "letter": letters[(letters.index(fields["letter"]) + 1) % len(letters)]}
        elif i % 7 == 0 and fields["exponent"] >= 1:
            fields = {**fields, "period": fields["period"] // sub.length}
        out.append((first, step, fields))
    return out, corrupted(sub, walked)


def test_certification_reports_injected_inconsistencies(
    monkeypatch, pd, pd2, bigdiag, periodic_right_seed, late_return, random_inputs
):
    # the classes and walks are what decide_range and the certifier both read
    real = toeplitz._residue_classes
    monkeypatch.setattr(
        toeplitz, "_residue_classes", lambda sub, lo, hi: corrupted_classes(sub, *real(sub, lo, hi))
    )
    injected = 0
    for sub in [pd, pd2, bigdiag, periodic_right_seed, late_return] + random_inputs:
        try:
            gate(sub)
        except SubstratumError:
            continue
        for lo, hi in ((-200, 200), (-5000, -4600)):
            try:
                expected = per_index_inconsistencies(sub, lo, hi, decide_range(sub, lo, hi))
            except Overflow:
                with pytest.raises(Overflow):
                    aperiodic_in_range(sub, lo, hi, certify=True)
                continue
            report = aperiodic_in_range(sub, lo, hi, certify=True)
            assert list(report.inconsistencies) == expected, (str(sub), lo, hi)
            injected += len(expected)
    assert injected > 100


def test_certification_reads_the_residue_classes(monkeypatch, pd, pd2, bigdiag):
    # certify builds no tuple of verdicts: it reads the classes and walks directly
    def refuse(sub, lo, hi):
        raise AssertionError("decide_range called")

    monkeypatch.setattr(toeplitz, "decide_range", refuse)
    for sub in (pd, pd2, bigdiag):
        report = aperiodic_in_range(sub, -200, 200, certify=True)
        assert report.inconsistencies == ()
        expected = tuple(v.index for v in per_index(sub, -200, 200) if not v.is_periodic())
        assert report.aperiodic == expected, str(sub)
    assert len(aperiodic_in_range(bigdiag, -200, 200).aperiodic) > 100


def test_certification_away_from_zero(pd, bigdiag, late_return):
    # the residue classes of this range do not start at a multiple of their period
    for sub in (pd, bigdiag, late_return):
        assert aperiodic_in_range(sub, -5000, -4600, certify=True).inconsistencies == ()


def test_certification_samples_each_aperiodic_verdict_once(monkeypatch, pd, bigdiag, late_return):
    # two letters at the deepest step are two letters at every shallower one
    calls = []
    real = toeplitz.sample_progression

    def counted(window, n, step, max_terms=None, stop_at=None):
        if stop_at == 2:
            calls.append((n, step))
        return real(window, n, step, max_terms=max_terms, stop_at=stop_at)

    monkeypatch.setattr(toeplitz, "sample_progression", counted)
    for sub in (pd, bigdiag, late_return):
        for lo, hi in ((-200, 200), (-5000, -4600)):
            calls.clear()
            report = aperiodic_in_range(sub, lo, hi, certify=True)
            assert report.inconsistencies == ()
            deepest = sub.length**toeplitz.CERTIFY_DEPTH
            assert calls == [(n, deepest) for n in report.aperiodic], (str(sub), lo, hi)
    assert aperiodic_in_range(bigdiag, -200, 200).aperiodic  # the counts above are not vacuous


def test_certification_reads_every_sampled_term(monkeypatch, pd, bigdiag, late_return):
    # a wrong letter planted at the farthest term that the first or the last
    # member of a class samples must be reported as the per-index samples report it
    real_build = toeplitz.window_for_range
    for sub in (pd, bigdiag, late_return):
        half = sub.length**3  # max_terms is 2*ell^3, read alternately on both sides
        verdicts = decide_range(sub, -200, 200)
        first = next(v for v in verdicts if v.is_periodic())
        last = next(v for v in reversed(verdicts) if v.is_periodic())
        for target in (first.index - (half - 1) * first.period, last.index + half * last.period):

            def planted(sub, lo, hi, target=target):
                window = real_build(sub, lo, hi)
                letters = array(window.letters.typecode, window.letters)
                letters[target - window.lo] = (letters[target - window.lo] + 1) % len(sub.alphabet)
                return Window(window.alphabet, window.lo, window.hi, letters)

            monkeypatch.setattr(toeplitz, "window_for_range", planted)
            expected = per_index_inconsistencies(sub, -200, 200, verdicts, build=planted)
            assert expected, (str(sub), target)  # the plant lies within a sample
            report = aperiodic_in_range(sub, -200, 200, certify=True)
            assert list(report.inconsistencies) == expected, (str(sub), target)
