"""The ell-kernel of a substitution fixed point, symbolically and by brute force.

The subsequence (u_{ell^e n + j}) is what the reverse machine outputs from the
state reached by the e digits of j, least significant first.  Two witnesses
therefore name the same kernel element exactly when their states share a Moore
block (one-sided, a block of the partition that keys every state on its
non-negative output alone), so the kernel is read off the blocks: a
level-by-level walk of the machine meets each block first at its least
witness (e, j), and at a state carrying the element's column map.  Samples
come from one table walk over the same machine: the output after the
digits of n is tabulated for all states at once, and one transposed gather
at the witness states reads every sample from it.  The brute-force variant
extracts subsequences straight from an expanded window and counts distinct
contents.  Its window is wide enough for every pair of distinct minimal
states to differ inside it, so within the budget it counts exactly the
minimal states within e_max digits of the start.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import _moore, _partition, _reverse_semigroup
from .errors import WindowTooShort
from .oracle import Window, window_for_range
from .semigroup import _gather
from .substitution import ColumnMap, Substitution, word_budget

ONE_SIDED = "one-sided"
TWO_SIDED = "two-sided"
SAMPLE_LENGTH = 16  # entries of each kernel element's sample
MIN_LENGTH = 4  # floor on the entries per subsequence in a brute-force count


@dataclass(frozen=True)
class KernelElement:
    """One subsequence class, with its least witness (e, j) and a sample."""

    class_map: ColumnMap
    e: int
    j: int
    sample: tuple[str, ...]


def _side_machine(sub: Substitution, side: str):
    """The reverse machine, its state maps and its Moore partition for ``side``.

    The one-sided partition reads the non-negative side alone: it starts
    from the non-negative initial state and keys every state on its
    non-negative output, twice.
    """
    if side not in (ONE_SIDED, TWO_SIDED):
        raise ValueError(f"side must be {ONE_SIDED!r} or {TWO_SIDED!r}")
    sub.require_seed()
    dfao, maps = _reverse_semigroup(sub, word_budget())
    if side == ONE_SIDED:
        start, out = dfao.initial_nonneg, dfao.out_nonneg
        return dfao, maps, _partition(dfao.delta, start, start, out, out)
    return dfao, maps, _moore(dfao)


def enumerate_kernel(sub: Substitution, side: str = TWO_SIDED) -> tuple[KernelElement, ...]:
    """All distinct kernel subsequences: the Moore blocks of the side's reverse machine.

    The one-sided kernel partitions the machine by its non-negative side
    alone.  Elements come in the order of their witnesses; each carries the
    column map of its witness state and the first ``SAMPLE_LENGTH`` entries
    of its subsequence.
    """
    dfao, maps, (_, block, _) = _side_machine(sub, side)
    ell = sub.length

    # level by level, digits outside and parents in increasing j inside: the
    # first arrival at a block is by its least witness, and levels come sorted
    start = dfao.initial_nonneg
    witnesses = {block[start]: (0, 0, start)}
    frontier = [(start, 0)]
    e = 0
    while frontier:
        level: dict[int, tuple[int, int]] = {}
        for d, column in enumerate(dfao.columns):
            shift = d * ell**e
            for s, j in frontier:
                t = column[s]
                b = block[t]
                if b not in witnesses and b not in level:
                    level[b] = (t, j + shift)
        e += 1
        frontier = list(level.values())
        witnesses.update((b, (e, j, t)) for b, (t, j) in level.items())

    # after[n][s]: the output from the state reached from s by the canonical
    # digits of n, least significant first; j + n*ell^e for n >= 1 is the e
    # digits of j, then n's, and reading j padded to e digits keeps the output u_j
    after = [dfao.out_nonneg]
    for n in range(1, SAMPLE_LENGTH):
        after.append(tuple(map(after[n // ell].__getitem__, dfao.columns[n % ell])))
    # one gather of the witness states from every row, transposed: each
    # witness's sample
    take = _gather([s for _, _, s in witnesses.values()])
    samples = zip(*map(take, after))
    return tuple(
        KernelElement(class_map=maps[s], e=e, j=j, sample=sample)
        for (e, j, s), sample in zip(witnesses.values(), samples)
    )


def brute_force_kernel(window: Window, ell: int, e_max: int) -> int:
    """Count distinct subsequences (u_{ell^e n + j}), e <= e_max, inside a window.

    Every subsequence is sampled over the same index range n so the contents
    are comparable: centered on 0, or from 0 when the window has no negative
    side.  The range must keep at least ``MIN_LENGTH`` entries at depth
    ``e_max``, and a negative ``e_max`` is a ``ValueError``.
    """
    if e_max < 0:
        raise ValueError(f"depth must be >= 0, got {e_max}")
    step_max = ell**e_max
    two_sided = window.lo < 0
    if two_sided:
        reach = min(-window.lo, window.hi + 1)
        radius = reach // step_max
        if radius < MIN_LENGTH:
            raise WindowTooShort(
                f"window supports radius {radius} at depth {e_max}, need {MIN_LENGTH}"
            )
        sample_range = range(-radius, radius)
    else:
        count = (window.hi + 1) // step_max
        if count < MIN_LENGTH:
            raise WindowTooShort(
                f"window supports {count} entries at depth {e_max}, need {MIN_LENGTH}"
            )
        sample_range = range(0, count)

    letters = window.letters
    seen: set[bytes] = set()
    for e in range(e_max + 1):
        step = ell**e
        for j in range(step):
            first = step * sample_range.start + j - window.lo  # offset of the first term
            seen.add(letters[first : first + step * len(sample_range) : step].tobytes())
    return len(seen)


def brute_force_kernel_for(sub: Substitution, e_max: int, side: str = TWO_SIDED) -> int:
    """Brute-force count to depth ``e_max`` over a window that separates every element.

    With R the splitting rounds of the Moore refinement of the side's reverse
    machine, two distinct minimal states differ on a digit word of length
    <= R, whose value lies in [-ell^R, ell^R) (in [0, ell^R) one-sided).  So
    every subsequence is sampled over at least that range, and at least
    ``MIN_LENGTH`` entries.  R comes from the symbolic side; a wrong R could
    only make the count too small.  A negative ``e_max`` is a ``ValueError``.
    """
    if e_max < 0:
        raise ValueError(f"depth must be >= 0, got {e_max}")
    _, _, (_, _, rounds) = _side_machine(sub, side)
    span = sub.length**e_max * max(sub.length**rounds, MIN_LENGTH)
    window = window_for_range(sub, 0 if side == ONE_SIDED else -span, span - 1)
    return brute_force_kernel(window, sub.length, e_max)
