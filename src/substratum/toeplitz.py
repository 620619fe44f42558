"""Periodic/aperiodic structure of a coincidence substitution's fixed point.

Every verdict is read off one machine, the reverse-reading semigroup machine
that :func:`gate` builds once per substitution and budget, and off per-state
tables of it.  An index n lies in Per exactly when the walk along its ell-adic
digit stream eventually reaches a constant state.  Constant states absorb, and
after the canonical digits only the sign's tail digit repeats, so what follows
is a property of the state reached: the gate walks each tail map,
s -> delta(s, 0) and s -> delta(s, ell-1), once and tabulates every state's
answer and the map's cycles.  The reduced graph is the machine minus its
constant states: its live part, since every state is reached from the
identity.  Infinite digit streams surviving inside it spell the aperiodic
ell-adic addresses, and the fixed point is aperiodic exactly when it has a
cycle.  The aperiodic integers are those whose tail walk ends on a tail map's
cycle; the reduced graph lists each with the integer its shortest access path
spells.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from . import digits as digitmod
from .automata import Dfao, _reverse_semigroup
from .errors import NontrivialHeight, NotToeplitz, Overflow
from .oracle import sample_progression, window_for_range
from .substitution import ColumnMap, Substitution, word_budget

PERIODIC = "periodic"
APERIODIC = "aperiodic"
CERTIFY_DEPTH = 6  # an aperiodic verdict is certified at every step ell^k, k <= 6


@dataclass(frozen=True)
class PeriodicityVerdict:
    """Per-index verdict; periodic indices carry the certified power of ell."""

    index: int
    status: str
    exponent: int | None
    period: int | None
    letter: str | None
    state_pos: ColumnMap
    state_neg: ColumnMap

    def is_periodic(self) -> bool:
        return self.status == PERIODIC


@dataclass(frozen=True)
class ToeplitzGate:
    """The machine every verdict walks, for an admitted substitution.

    ``maps[s]`` is the column map of state s of ``machine``, and
    ``constant[s]`` marks the states whose map has a one-letter image;
    ``aperiodic`` tells whether the fixed point is.
    ``tails[d]``, for the tail digits d = 0 and d = ell-1, is the pair
    (ends, cycles) of :func:`_tail_table` for the map s -> delta(s, d).
    """

    aperiodic: bool
    machine: Dfao
    maps: tuple[ColumnMap, ...]
    constant: tuple[bool, ...]
    tails: dict[int, tuple[tuple, tuple]]


def gate(sub: Substitution) -> ToeplitzGate:
    """Check the preconditions (primitive, height 1, coincidence); cache the result.

    The column number is the least image size over the machine's states: they
    are the identity plus every product of columns, and the identity has the
    largest image.  The fixed point is aperiodic exactly when the live part of
    the machine has a cycle (see :func:`_live_part_has_cycle`).  No window
    is expanded.
    """
    return _gate(sub, word_budget())


@lru_cache(maxsize=None)
def _gate(sub: Substitution, limit: int) -> ToeplitzGate:
    """Keyed on the budget too, so a changed ``SUBSTRATUM_BUDGET`` applies."""
    if not sub.is_primitive():
        raise NotToeplitz("the decision procedure needs a primitive substitution")
    sub.require_seed()
    h = sub.height()
    if h != 1:
        raise NontrivialHeight(f"height {h} > 1: pure base construction not provided")
    machine, maps = _reverse_semigroup(sub, limit)
    sizes = [m.image_size() for m in maps]
    c = min(sizes)
    if c != 1:
        raise NotToeplitz(f"column number {c} != 1: the shift is not Toeplitz")
    constant = tuple(size == 1 for size in sizes)
    delta = machine.delta
    return ToeplitzGate(
        aperiodic=_live_part_has_cycle(delta, constant),
        machine=machine,
        maps=maps,
        constant=constant,
        tails={d: _tail_table(delta, d, constant) for d in (0, sub.length - 1)},
    )


def _tail_table(delta, digit: int, constant):
    """One pass over s -> delta[s][digit]: every state's answer, and the cycles.

    ``ends[s]`` is (steps, t) when the walk from s reaches the constant state t
    after ``steps`` steps, and (None, t) when it never does, t being the last
    state it visits before a state repeats.  A walk from each state not yet
    answered stops at an answered state or closes a cycle on its own path,
    and the states behind it take their answers from there: every state is
    walked once.  The cycles, never constant, list their states in walk order.
    """
    ends: list = [(0, s) if constant[s] else None for s in range(len(delta))]
    cycles = []
    for start in range(len(delta)):
        if ends[start] is not None:
            continue
        path: dict[int, int] = {}  # state -> position on this walk
        s = start
        while ends[s] is None and s not in path:
            path[s] = len(path)
            s = delta[s][digit]
        walk = list(path)
        if s in path:  # a cycle state's walk ends on its predecessor in the cycle
            cycle = walk[path[s] :]
            cycles.append(tuple(cycle))
            for before, state in zip([cycle[-1], *cycle], cycle):
                ends[state] = (None, before)
            del walk[path[s] :]
        steps, t = ends[s]
        for state in reversed(walk):
            steps = None if steps is None else steps + 1
            ends[state] = (steps, t)
    return tuple(ends), tuple(cycles)


def _live_part_has_cycle(delta, constant) -> bool:
    """Whether the non-constant states carry a cycle.

    They are the live part: every state is reached from the identity, and
    constant maps absorb (f constant makes f ∘ theta_d constant), so a walk
    that reaches a non-constant state passes through non-constant states only.
    Without a cycle, every digit stream reaches a constant state within K steps,
    so u_n depends on n mod ell^K alone.  A cycle leaves, at every level k, a
    residue class mod ell^k on which u is not constant (every letter occurs),
    so no ell^k is a period; nor is any P = ell^a q: every class mod ell^a
    holds an index n reaching a constant state at some level k >= a (a
    coincidence follows any state), u is constant on n + ell^k Z and, with
    period P, on n + ell^a Z, so ell^a would be a period.
    """
    live = [s for s in range(len(delta)) if not constant[s]]
    # peel the states no unpeeled live state leads to; a cycle is what remains
    indegree = Counter(t for s in live for t in delta[s] if not constant[t])
    peeled = [s for s in live if not indegree[s]]
    for s in peeled:  # the list grows behind the cursor, like a queue
        for t in delta[s]:
            if not constant[t]:
                indegree[t] -= 1
                if not indegree[t]:
                    peeled.append(t)
    return len(peeled) < len(live)


def decide_per(sub: Substitution, n: int) -> PeriodicityVerdict:
    """Classify one index of the fixed point as periodic or aperiodic.

    Periodic with period ell^k means the two-sided progression through n with
    step ell^k is constant; the walk state being a constant map certifies it
    in both directions at once, and the state one marker further on is
    reported as the negative-side evidence in the shape of the two-condition
    test.  The walk reads the canonical digits, stopping early at a constant
    state, and the gate's tail table of the sign's tail digit answers for the
    rest of the digit stream.
    """
    return _walk(gate(sub), sub, n)


def _walk(g: ToeplitzGate, sub: Substitution, n: int) -> PeriodicityVerdict:
    """:func:`decide_per`'s walk for n on the gate ``g`` of ``sub``."""
    ell = sub.length
    delta, constant = g.machine.delta, g.constant
    s = k = 0  # the initial state is the identity
    for d in reversed(digitmod.to_digits(n, ell)):
        if constant[s]:
            break
        s, k = delta[s][d], k + 1
    steps, s = g.tails[0 if n >= 0 else ell - 1][0][s]
    return _verdict(n, _fields(g, sub, s, None if steps is None else k + steps))


def _fields(g: ToeplitzGate, sub: Substitution, s: int, exponent: int | None) -> dict:
    """The six verdict fields after the index, in field order, for a walk that
    ends at state s: periodic with period ell^exponent, or aperiodic when
    ``exponent`` is None."""
    ell = sub.length
    pos = g.maps[s]
    periodic = exponent is not None
    return {
        "status": PERIODIC if periodic else APERIODIC,
        "exponent": exponent,
        "period": ell**exponent if periodic else None,
        "letter": sub.alphabet.letters[pos.table[0]] if periodic else None,
        "state_pos": pos,
        "state_neg": g.maps[g.machine.delta[s][ell - 1]],
    }


def _residue_classes(sub: Substitution, lo: int, hi: int) -> tuple[list, list]:
    """The verdicts on [lo, hi] as residue classes, and the walks left over.

    Returns ``(classes, walked)``.  Each class is a record ``(first, step,
    fields)``: every index ``first + i*step`` of [lo, hi] has the periodic
    verdict whose other six fields are ``fields`` (see :func:`_fields`), and
    ``first`` is the least of them.  ``walked`` lists the verdicts of the
    indices no class covers, residue by residue, each from :func:`_walk`.

    decide_per reads the ell-adic digits of n least significant first (for
    negative n too: Python's ``%`` gives them), so its state after k digits
    depends on n mod ell^k alone.  Level k of the residue tree holds the live
    residues r mod ell^k, each with its state; child r + d*ell^k goes to
    ``delta[s][d]``.  A residue reaching a constant state at level k is a
    class: exponent k, period ell^k and the state's letter.  Once ell^(k+1)
    exceeds hi - lo a class holds at most ell indices, and the indices still
    live take decide_per's walk on the gate already in hand: a level deeper,
    nearly every class holds one index, so it would cost a node per index
    and spare few walks.  Every level reached has ell^k <= hi - lo, so each
    class of a non-empty range holds an index.  A range of more indices than
    the budget is refused before any work.
    """
    width, limit = hi - lo + 1, word_budget()
    if width > limit:
        raise Overflow(f"range of {width} indices exceeds budget {limit}")
    g = gate(sub)
    ell = sub.length
    delta, constant = g.machine.delta, g.constant
    classes = []
    level = [(0, 0)]  # (residue, state); level 0 is r = 0 at the identity
    k, step = 0, 1
    while True:
        live = []
        for r, s in level:
            if constant[s]:
                classes.append((lo + (r - lo) % step, step, _fields(g, sub, s, k)))
            else:
                live.append((r, s))
        if step * ell > hi - lo:
            walked = [_walk(g, sub, n) for r, _ in live for n in range(lo + (r - lo) % step, hi + 1, step)]
            return classes, walked
        level = [(r + d * step, t) for r, s in live for d, t in enumerate(delta[s])]
        k, step = k + 1, step * ell


def decide_range(sub: Substitution, lo: int, hi: int) -> tuple[PeriodicityVerdict, ...]:
    """decide_per on every index of [lo, hi], one residue class at a time.

    The classes and the left-over walks come from :func:`_residue_classes`;
    the result equals ``tuple(decide_per(sub, n) for n in range(lo, hi + 1))``.
    """
    classes, walked = _residue_classes(sub, lo, hi)
    verdicts: list = [None] * max(hi - lo + 1, 0)
    for first, step, fields in classes:
        verdicts[first - lo :: step] = [_verdict(n, fields) for n in range(first, hi + 1, step)]
    for v in walked:
        verdicts[v.index - lo] = v
    return tuple(verdicts)


_new = object.__new__


def _verdict(index: int, fields: dict) -> PeriodicityVerdict:
    """The verdict ``PeriodicityVerdict(index, **fields)``, set without the
    frozen dataclass's ``__init__``, which sets each field through
    ``object.__setattr__``; ``fields`` holds the other six in field order."""
    verdict = _new(PeriodicityVerdict)
    state = vars(verdict)
    state["index"] = index
    state.update(fields)
    return verdict


@dataclass(frozen=True)
class RangeReport:
    """The aperiodic indices of a range, with optional oracle cross-validation."""

    lo: int
    hi: int
    aperiodic: tuple[int, ...]
    certified: bool
    inconsistencies: tuple[str, ...]

    def summary(self) -> str:
        inner = ", ".join(str(n) for n in self.aperiodic)
        return f"Aper ∩ [{self.lo},{self.hi}] = {{{inner}}}"


def aperiodic_in_range(sub: Substitution, lo: int, hi: int, certify: bool = False) -> RangeReport:
    """Classify every index in [lo, hi] as decide_per does, with optional certification.

    The verdicts are read off :func:`_residue_classes`, which walks the
    residue tree instead of one digit stream per index: the aperiodic ones
    are walked verdicts, and each residue class is one periodic claim.

    With ``certify`` the verdicts are cross-checked against windowed
    progressions: a periodic index must show a single letter at its step
    within a window that covers the range and [-ell^(K+3), ell^(K+3) - 1], K
    the largest periodic exponent or ``CERTIFY_DEPTH`` if larger; an aperiodic
    one must show two letters at every step ell^k, k <= ``CERTIFY_DEPTH``.
    An empty range makes no claim and builds no window.
    An aperiodic verdict is sampled at the deepest step ell^K, K =
    ``CERTIFY_DEPTH``, first: inside the window, n + ell^K Z lies in
    n + ell^k Z for every k <= K, and each sample walks its whole progression
    until it sees two letters, so two letters at ell^K are two letters at
    every shallower step.  Only a verdict that fails there is sampled at each
    step in turn, which names its failing steps in the per-step order.
    Periodic verdicts are certified one claim at a time: a class, or a walked
    periodic verdict on its own, claims period P and one letter for its
    members, and one strided slice of the window from ``2*ell^3`` steps of P
    before its first member to ``2*ell^3`` steps after its last holds every
    term their samples would examine (P divides the class's step).  When the
    slice shows only the claimed letter the whole claim passes; otherwise
    each member's verdict is built and sampled on its own, so the report,
    inconsistencies and their order included, is the one the per-index
    samples give.
    """
    classes, walked = _residue_classes(sub, lo, hi)  # gates the substitution first
    # walked indices come out residue by residue
    aperiodic = sorted((v for v in walked if v.status == APERIODIC), key=attrgetter("index"))

    inconsistencies: list[str] = []
    if certify and lo <= hi:
        ell = sub.length
        max_expo = max(
            [fields["exponent"] for _, _, fields in classes]
            + [v.exponent for v in walked if v.status == PERIODIC],
            default=0,
        )
        reach = ell ** (max(max_expo, CERTIFY_DEPTH) + 3)  # >= ell^(k+3) for every verdict
        window = window_for_range(sub, min(lo, -reach), max(hi, reach - 1))
        # a periodic claim is checked across at least ell^(k+3)/step = ell^3
        # progression terms; an aperiodic claim only needs two letters found
        periodic_terms = 2 * ell**3
        deepest = ell**CERTIFY_DEPTH
        pending = list(aperiodic)
        for first, step, fields in classes:
            last = first + (hi - first) // step * step
            if not _claim_holds(window, first, last, fields["period"], fields["letter"], periodic_terms):
                pending += [_verdict(n, fields) for n in range(first, hi + 1, step)]
        for v in walked:
            if v.status == PERIODIC and not _claim_holds(window, v.index, v.index, v.period, v.letter, periodic_terms):
                pending.append(v)
        pending.sort(key=attrgetter("index"))  # verdict order is index order
        for v in pending:
            if v.status == PERIODIC:
                seen = sample_progression(window, v.index, v.period, max_terms=periodic_terms)
                if seen != {v.letter}:
                    inconsistencies.append(
                        f"index {v.index}: claimed constant {v.letter} at step {v.period}, saw {sorted(seen)}"
                    )
            elif len(sample_progression(window, v.index, deepest, stop_at=2)) < 2:
                for k in range(CERTIFY_DEPTH + 1):
                    seen = sample_progression(window, v.index, ell**k, stop_at=2)
                    if len(seen) < 2:
                        inconsistencies.append(
                            f"index {v.index}: claimed aperiodic but step {ell**k} shows only {sorted(seen)}"
                        )
    return RangeReport(
        lo=lo,
        hi=hi,
        aperiodic=tuple(v.index for v in aperiodic),
        certified=certify,
        inconsistencies=tuple(inconsistencies),
    )


def _claim_holds(window, first: int, last: int, period: int, letter: str, terms: int) -> bool:
    """Whether the window shows only ``letter`` at every index first + i*period
    from ``terms`` steps before ``first`` to ``terms`` steps after ``last``.

    ``sample_progression(window, n, period, max_terms=terms)`` examines indices
    n + i*period with -terms < i <= terms inside the window, so for every
    member n of the claim (n = first mod period, first <= n <= last) this
    strided slice holds every term of its sample, and each sample is a
    non-empty part of it.
    """
    start = max(first - terms * period, window.lo + (first - window.lo) % period)
    stop = min(last + terms * period, window.hi) + 1
    terms_seen = window.letters[start - window.lo : stop - window.lo : period]
    return terms_seen.count(window.alphabet.index(letter)) == len(terms_seen)


@dataclass(frozen=True)
class CycleInfo:
    """A cycle of a tail map of the reduced graph, with the integer it spells.

    The cycle repeats one digit d, 0 or ell-1, and is entered at its least
    state by the shortest access path; the address is the integer whose
    digit stream is that path followed by d forever: the path's value for
    d = 0, and the path's value - ell^len(path) for d = ell-1.
    """

    entry_state: int
    prefix_digits: tuple[int, ...]
    cycle_digits: tuple[int, ...]
    address: int


@dataclass(frozen=True)
class ReducedGraph:
    """The reverse machine minus its constant states and the edges into them,
    with every cycle of its two tail maps that the identity reaches."""

    machine: Dfao
    vertices: tuple[int, ...]
    vertex_labels: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]  # (source, digit, target)
    removed: int
    cycles: tuple[CycleInfo, ...]

    def to_dot(self) -> str:
        lines = ["digraph reduced {", "  rankdir=LR;", "  node [shape=circle, fontsize=11];"]
        names = {v: self.vertex_labels[i] for i, v in enumerate(self.vertices)}
        initial = self.machine.initial_nonneg
        if initial in names:
            lines.append('  __init [shape=none, label=""];')
            lines.append(f'  __init -> "{names[initial]}";')
        for v in self.vertices:
            lines.append(f'  "{names[v]}";')
        grouped: dict[tuple[int, int], list[int]] = {}
        for src, d, dst in self.edges:
            grouped.setdefault((src, dst), []).append(d)
        for (src, dst), ds in sorted(grouped.items()):
            label = ",".join(str(d) for d in sorted(ds))
            lines.append(f'  "{names[src]}" -> "{names[dst]}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def reduced_graph(sub: Substitution) -> ReducedGraph:
    """Delete all 1-vertices (constant-map states) of the gate's machine and
    the edges leading to them; list the cycles of the tail maps
    s -> delta(s, 0) and s -> delta(s, ell-1), which the gate's tail tables hold.

    After its canonical digits an integer's walk reads its tail digit forever
    (0 for n >= 0, ell-1 for n < 0), so it is aperiodic exactly when that
    tail walk enters one of these cycles before a constant state: the list
    is complete.  Their states are non-constant, so the identity reaches
    each through non-constant states, by a shortest access path.
    """
    g = gate(sub)
    machine = g.machine
    delta, ell = machine.delta, machine.ell
    keep = [s for s in range(machine.num_states) if not g.constant[s]]
    edges = tuple((s, d, t) for s in keep for d, t in enumerate(delta[s]) if not g.constant[t])
    paths = _shortest_paths(machine.initial_nonneg, delta, g.constant)
    infos = []
    for digit, (_, cycles) in g.tails.items():
        for cycle in cycles:
            entry = min(cycle)
            prefix = paths[entry]
            value = sum(d * ell**i for i, d in enumerate(prefix))
            infos.append(
                CycleInfo(
                    entry_state=entry,
                    prefix_digits=prefix,
                    cycle_digits=(digit,) * len(cycle),
                    address=value if digit == 0 else value - ell ** len(prefix),
                )
            )
    infos.sort(key=lambda c: (len(c.cycle_digits), c.cycle_digits, c.prefix_digits))
    return ReducedGraph(
        machine=machine,
        vertices=tuple(keep),
        vertex_labels=tuple(machine.labels[s] for s in keep),
        edges=edges,
        removed=machine.num_states - len(keep),
        cycles=tuple(infos),
    )


def _shortest_paths(initial: int, delta, constant) -> dict[int, tuple[int, ...]]:
    """BFS digit paths from the initial state through non-constant states,
    least digit first: the live states, each with its shortest access path."""
    if constant[initial]:
        return {}
    paths = {initial: ()}
    queue = [initial]
    for s in queue:  # the list grows behind the cursor
        for d, t in enumerate(delta[s]):
            if not constant[t] and t not in paths:
                paths[t] = paths[s] + (d,)
                queue.append(t)
    return paths
