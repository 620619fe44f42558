"""The three workloads: their inputs, one operation, and the independent checks.

Every workload calls the toolkit through module attributes (``automata.minimize``
rather than a name imported once), so the tracer's wrappers see every call.
A workload offers:

* ``ops``: the operations in their fixed order;
* ``cold``: whether the toolkit's caches are cleared before each operation;
* ``call(op)``: the timed operation;
* ``outcome(result)``: the outcome of an operation that returned;
* ``evidence(op, result)``: the little a later check needs, taken outside
  the operation's timing so that large results can be dropped at once;
* ``verify(op, evidence)``: None when the output agrees with the
  independent checks, "unverified" when no check could be made, or a
  description of the mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from substratum import automata, cli, kernel, oracle, semigroup, toeplitz
from substratum.errors import Overflow, Refusal

import corpus

OK, REFUSED, OVERFLOW, TIMEOUT, WRONG, ERROR = (
    "ok",
    "refused",
    "overflow",
    "timeout",
    "wrong",
    "error",
)
OUTCOMES = (OK, REFUSED, OVERFLOW, TIMEOUT, WRONG, ERROR)
FAILED = (OVERFLOW, TIMEOUT, WRONG, ERROR)
UNVERIFIED = "unverified"

# Oracle windows built by the checks stay below this many letters per side.
CHECK_WINDOW = 1 << 17


def oracle_window(sub, need: int, want: int = 0):
    """An expand() window reaching ``want`` letters a side if CHECK_WINDOW allows,
    else the largest one allowed; None if that cannot reach ``need``."""
    period = sub.seed_period()
    generations = period
    while (
        sub.length**generations < max(need, want)
        and sub.length ** (generations + period) <= CHECK_WINDOW
    ):
        generations += period
    if not need <= sub.length**generations <= CHECK_WINDOW:
        return None
    return oracle.expand(sub, generations)


class CheckCorpus:
    """``substratum check FILE`` in-process on every corpus input."""

    name = "check-corpus"
    cold = True

    def __init__(self, seed: int, out_dir: str) -> None:
        self.entries = corpus.check_corpus(seed)
        folder = os.path.join(out_dir, f"corpus-{self.name}-{seed}")
        os.makedirs(folder, exist_ok=True)
        self.ops = []
        for i, entry in enumerate(self.entries):
            path = os.path.join(folder, f"{i:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(corpus.to_json(entry.sub), fh)
            self.ops.append(path)
        self.setup_outcomes: dict[str, int] = {}

    def call(self, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["check", path])
        return code, out.getvalue()

    def outcome(self, result) -> str:
        # every input is valid by construction, so exit 1 is an exhausted budget
        return {0: OK, 1: OVERFLOW, 2: REFUSED, 3: WRONG}.get(result[0], ERROR)

    def evidence(self, path, result):
        code, text = result
        return code, "FAIL:" in text

    def verify(self, path, evidence):
        code, failed_line = evidence
        # exit 1 may follow FAIL lines printed before the budget ran out
        if code in (0, 3) and (code == 3) != failed_line:
            return f"exit {code} disagrees with the printed invariant lines"
        return None


class MachineBuild:
    """The whole construction chain for one substitution, from cold caches."""

    name = "machine-build"
    cold = True
    SAMPLE = 40  # indices per input checked against the oracle
    SPAN = 200

    def __init__(self, seed: int, out_dir: str) -> None:
        self.entries = corpus.machine_corpus(seed)
        rng = random.Random(f"{self.name}:{seed}:indices")
        self.ops = [
            (e.sub, tuple(rng.randint(-self.SPAN, self.SPAN) for _ in range(self.SAMPLE)))
            for e in self.entries
        ]
        self.setup_outcomes: dict[str, int] = {}

    def call(self, op):
        sub, _ = op
        sub.simplify()
        direct = automata.build_direct(sub)
        reverse = automata.build_reverse_semigroup(sub)
        determinized = automata.reverse_and_determinize(direct)
        min_reverse = automata.minimize(reverse)
        min_determinized = automata.minimize(determinized)
        same = automata.equivalent(reverse, determinized)
        elements = kernel.enumerate_kernel(sub)
        semigroup.closure(sub.columns())
        semigroup.structure_semigroup(sub)
        try:
            toeplitz.gate(sub)
        except Refusal:
            pass
        else:
            toeplitz.reduced_graph(sub)
        return reverse, min_reverse, min_determinized, same, elements

    def outcome(self, result) -> str:
        return OK

    def evidence(self, op, result):
        _, indices = op
        reverse, min_reverse, min_determinized, same, elements = result
        letters = tuple(reverse.run(n) for n in indices)
        return (
            len(elements),
            min_reverse.num_states,
            min_determinized.num_states,
            same.equal,
            letters,
        )

    def verify(self, op, evidence):
        sub, indices = op
        kernel_size, min_reverse, min_determinized, equal, letters = evidence
        if not kernel_size == min_reverse == min_determinized:
            return f"kernel {kernel_size}, minimal machines {min_reverse}/{min_determinized}"
        if not equal:
            return "determinized reversal differs from the semigroup machine"
        window = oracle_window(sub, self.SPAN + 1)
        if window is None:
            return UNVERIFIED
        for n, letter in zip(indices, letters):
            if window.letter(n) != letter:
                return f"reverse machine gives {letter!r} at {n}, oracle {window.letter(n)!r}"
        return None


class ToeplitzQuery:
    """One decide_per call per operation, against warm per-substitution caches."""

    name = "toeplitz-query"
    cold = False
    BLOCK = 20  # indices -BLOCK..BLOCK around 0
    FAR = 20  # indices with ell^20 <= |n| < ell^40
    DEPTH = 6  # aperiodic verdicts are certified at steps up to ell^DEPTH

    def __init__(self, seed: int, out_dir: str) -> None:
        self.entries = corpus.coincidence_corpus(seed)
        rng = random.Random(f"{self.name}:{seed}:indices")
        self.setup_outcomes = {REFUSED: 0, OVERFLOW: 0}
        self.ops = []
        for entry in self.entries:
            sub = entry.sub
            try:
                toeplitz.gate(sub)
            except Refusal:
                self.setup_outcomes[REFUSED] += 1
                continue
            except Overflow:
                self.setup_outcomes[OVERFLOW] += 1
                continue
            far = [
                rng.choice((-1, 1)) * rng.randrange(sub.length**20, sub.length**40)
                for _ in range(self.FAR)
            ]
            self.ops += [(sub, n) for n in range(-self.BLOCK, self.BLOCK + 1)]
            self.ops += [(sub, n) for n in far]
        # ops of one substitution are adjacent, so one cached window suffices
        self._checked = None
        self._window = self._direct = None

    def call(self, op):
        sub, n = op
        return toeplitz.decide_per(sub, n)

    def outcome(self, result) -> str:
        return OK

    def evidence(self, op, verdict):
        return verdict.status, verdict.period, verdict.letter

    def verify(self, op, evidence):
        sub, n = op
        status, period, letter = evidence
        if sub is not self._checked:
            self._checked = sub
            self._direct = automata.build_direct(sub)
            self._window = oracle_window(sub, self.BLOCK + 1, sub.length ** (self.DEPTH + 3))
        if abs(n) > self.BLOCK:
            if status != toeplitz.PERIODIC:
                return UNVERIFIED
            direct = self._direct
            seen = {direct.run(n - period), direct.run(n), direct.run(n + period)}
            if seen != {letter}:
                return f"periodic letter {letter!r} at {n}, direct machine reads {sorted(seen)}"
            return None
        window = self._window
        if window is None:
            return UNVERIFIED
        if status == toeplitz.PERIODIC:
            seen = oracle.sample_progression(window, n, period, max_terms=2 * sub.length**3)
            if seen != {letter}:
                return f"periodic letter {letter!r} at {n} step {period}, oracle saw {sorted(seen)}"
            return None
        # two letters along a step certify it; one letter in a finite window
        # proves nothing, so such a verdict stays unverified
        for k in range(self.DEPTH + 1):
            step = sub.length**k
            if step * sub.length**3 > window.hi:
                break
            if len(oracle.sample_progression(window, n, step, stop_at=2)) < 2:
                return UNVERIFIED
        return None


WORKLOADS = {w.name: w for w in (CheckCorpus, MachineBuild, ToeplitzQuery)}
