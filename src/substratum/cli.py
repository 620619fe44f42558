"""Command-line front end.

Exit codes: 0 success, 1 invalid input, 2 analysis refusal (not Toeplitz /
nontrivial height), 3 internal invariant violation.  All output is
deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import repeat

from . import digits as digitmod
from . import kernel as kernelmod
from . import toeplitz as toeplitzmod
from .automata import build_direct, build_reverse_semigroup, equivalent, minimize, reverse_and_determinize
from .errors import InputError, Overflow, Refusal, SubstratumError
from .oracle import expand, window_for_range
from .semigroup import closure, structure_semigroup
from .substitution import Substitution, word_budget

PROG = "substratum"


def load_substitution(path: str) -> Substitution:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    for key in ("alphabet", "length", "rules"):
        if key not in data:
            raise InputError(f"{path}: missing key {key!r}")
    return Substitution.from_parts(
        data["alphabet"], data["length"], data["rules"], data.get("seed")
    )


def parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise InputError(f"range must look like lo..hi, got {text!r}") from None
    if lo > hi:
        raise InputError(f"empty range {text!r}")
    return lo, hi


# -- verbs ------------------------------------------------------------------


def cmd_validate(args) -> int:
    sub = load_substitution(args.file)
    print(f"ok: {sub}")
    if sub.seed is not None:
        a_l, a_r = sub.seed
        print(f"seed: {sub.alphabet[a_l]}·{sub.alphabet[a_r]} (period {sub.seed_period()})")
    return 0


def cmd_simplify(args) -> int:
    sub = load_substitution(args.file)
    simplified, exponent = sub.simplify()
    print(f"exponent: {exponent}")
    print(f"length: {simplified.length}")
    print(f"rules: {simplified}")
    return 0


def cmd_fixed_point(args) -> int:
    sub = load_substitution(args.file)
    lo, hi = parse_range(args.range)
    sub.require_seed()
    limit = word_budget()
    if hi - lo + 1 > limit:
        raise Overflow(f"window of length {hi - lo + 1} exceeds budget {limit}")
    machine = build_direct(sub)
    if max(-lo, hi) <= 2 * (hi - lo + 1):  # run_range costs O(max(|lo|, |hi|)) steps
        word = machine.run_range(lo, hi)
    else:  # O(log |n|) steps per index, however far the window lies
        word = tuple(machine.run(n) for n in range(lo, hi + 1))
    sep = "" if all(len(letter) == 1 for letter in sub.alphabet) else " "  # as Alphabet.word_str
    print(sep.join(word))
    return 0


def cmd_automaton(args) -> int:
    sub = load_substitution(args.file)
    machine = build_direct(sub) if args.reading == "direct" else build_reverse_semigroup(sub)
    if args.minimize:
        machine = minimize(machine)
    if args.format == "dot":
        sys.stdout.write(machine.to_dot())
    elif args.format == "json":
        print(json.dumps(machine.to_json_dict(), indent=2, ensure_ascii=False, sort_keys=False))
    else:
        names = machine.state_names()
        print(f"reading: {machine.reading}   states: {machine.num_states}   ell: {machine.ell}")
        print(f"initial: nonneg={names[machine.initial_nonneg]} neg={names[machine.initial_neg]}")
        for s in range(machine.num_states):
            row = " ".join(f"{d}->{names[machine.delta[s][d]]}" for d in range(machine.ell))
            print(f"{names[s]:>16}  {row}  out+={machine.out_nonneg[s]} out-={machine.out_neg[s]}")
    return 0


def cmd_kernel(args) -> int:
    if args.depth is not None and args.depth < 0:
        raise InputError(f"--depth must be >= 0, got {args.depth}")
    sub = load_substitution(args.file)
    elements = kernelmod.enumerate_kernel(sub, side=args.side)
    print(f"kernel size: {len(elements)}")
    for el in elements:
        sample = "".join(el.sample) if all(len(s) == 1 for s in el.sample) else " ".join(el.sample)
        print(f"e={el.e} j={el.j}  {el.class_map.vector():>16}  {sample}")
    if args.depth is not None:
        brute = kernelmod.brute_force_kernel_for(sub, args.depth, side=args.side)
        print(f"brute-force count at depth {args.depth}: {brute}")
    return 0


def cmd_semigroup(args) -> int:
    sub = load_substitution(args.file)
    struct = structure_semigroup(sub)
    cl = closure(sub.columns())
    print(f"structure semigroup ({len(struct.elements)} elements):")
    for m in struct.elements:
        print(f"  {m.vector()}")
    print(f"stabilizing exponent: {struct.stabilizing_exponent}")
    print(f"column closure size: {len(cl.elements)}  min rank: {cl.min_rank}")
    return 0


def cmd_toeplitz(args) -> int:
    sub = load_substitution(args.file)
    lo, hi = parse_range(args.range)
    report = toeplitzmod.aperiodic_in_range(sub, lo, hi, certify=args.certify)
    print(f"fixed point: {'aperiodic' if toeplitzmod.gate(sub).aperiodic else 'periodic'}")
    for v in report.verdicts:
        if v.is_periodic():
            print(
                f"{v.index:>6}  periodic  period={v.period} letter={v.letter} "
                f"states=({v.state_pos.vector()}, {v.state_neg.vector()})"
            )
        else:
            print(
                f"{v.index:>6}  aperiodic  states=({v.state_pos.vector()}, {v.state_neg.vector()})"
            )
    if report.certified:
        if report.inconsistencies:
            for line in report.inconsistencies:
                print(f"INCONSISTENT: {line}")
            print(report.summary())
            return 3
        print(f"certified against the window oracle: {len(report.verdicts)} indices")
    print(report.summary())
    return 0


def cmd_reduced_graph(args) -> int:
    sub = load_substitution(args.file)
    graph = toeplitzmod.reduced_graph(sub)
    if args.format == "dot":
        sys.stdout.write(graph.to_dot())
        return 0
    print(f"vertices ({len(graph.vertices)}), removed {graph.removed} constant states:")
    for label in graph.vertex_labels:
        print(f"  {label}")
    print(f"edges: {len(graph.edges)}")
    for cycle in graph.cycles:
        prefix = ",".join(map(str, cycle.prefix_digits)) or "ε"
        body = ",".join(map(str, cycle.cycle_digits))
        print(f"cycle ({body})* after {prefix}: address {cycle.address}")
    return 0


def cmd_check(args) -> int:
    sub = load_substitution(args.file)
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"ok: {name}")
        else:
            failures += 1
            print(f"FAIL: {name}{' (' + detail + ')' if detail else ''}")

    report("validate", True)

    indices = range(-2000, 2001)
    round_trip = map(digitmod.to_int, map(digitmod.to_digits, indices, repeat(sub.length)))
    report("digit round-trip", list(round_trip) == list(indices))

    simplified, exponent = sub.simplify()
    report(f"simplify (exponent {exponent})", simplified.is_simplified())

    if sub.seed is None:
        print("note: no seed given; machine and kernel checks skipped")
        return 3 if failures else 0

    small = expand(sub, 2)
    large = expand(sub, 3)
    report(
        "window self-consistency",
        all(small[i] == large[i] for i in range(small.lo, small.hi + 1)),
    )

    span = 1000
    window = window_for_range(sub, -span, span)
    direct = build_direct(sub)
    reverse = build_reverse_semigroup(sub)
    letters = window.letters[-span - window.lo : span + 1 - window.lo]
    expected = tuple(map(sub.alphabet.letters.__getitem__, letters))
    for name, machine in (("direct", direct), ("reverse", reverse)):
        got = machine.run_range(-span, span)
        bad = []
        if got != expected:  # the mismatch list is built for a failing line only
            bad = [n for n, a, b in zip(range(-span, span + 1), got, expected) if a != b]
        report(f"{name} machine vs oracle on ±{span}", not bad, f"first mismatch {bad[:1]}")

    det = reverse_and_determinize(direct)
    eq = equivalent(reverse, det)
    report("determinized reversal equals semigroup machine", eq.equal, f"witness {eq.witness}")

    min_rev = minimize(reverse)
    report("minimize idempotent", minimize(min_rev).num_states == min_rev.num_states)

    # the paper's construction gives a minimal machine; it needs primitivity
    if sub.is_primitive():
        machine = build_reverse_semigroup(simplified)
        smallest = minimize(machine).num_states
        report(
            "semigroup machine of the simplified form is minimal",
            smallest == machine.num_states,
            f"{machine.num_states} states, {smallest} after minimize",
        )
    else:
        print("note: not primitive; semigroup machine minimality skipped")

    elements = kernelmod.enumerate_kernel(sub)
    min_det = minimize(det)
    report(
        "kernel cardinality equals both minimal machines",
        len(elements) == min_rev.num_states == min_det.num_states,
        f"kernel {len(elements)}, machines {min_rev.num_states}/{min_det.num_states}",
    )

    depth = max(el.e for el in elements) or 1
    try:
        brute_small = kernelmod.brute_force_kernel_for(sub, depth - 1) if depth > 1 else None
        brute = kernelmod.brute_force_kernel_for(sub, depth)
        ok = brute == len(elements)
        if brute_small is not None:
            ok = ok and brute_small <= brute
        report(
            "brute-force kernel stabilizes at the symbolic count",
            ok,
            f"{'-' if brute_small is None else brute_small} -> {brute} vs {len(elements)}",
        )
    except SubstratumError as exc:
        print(f"note: brute-force kernel depth {depth} skipped ({exc})")

    p_r, p_l = sub.seed_periods()
    ok = True
    for n in (0, 1, 7, 19, -1, -2, -9):
        ds = digitmod.to_digits(n, sub.length)
        pad_by = p_r if n >= 0 else p_l
        side = "nonneg" if n >= 0 else "neg"
        base_len = len(ds)
        if base_len % pad_by:
            ds = digitmod.pad(ds, base_len + pad_by - base_len % pad_by)
        padded = digitmod.pad(ds, len(ds) + pad_by)
        if direct.run_word(ds.digits, side) != direct.run_word(padded.digits, side):
            ok = False
        if reverse.run_word(ds.digits, side) != reverse.run_word(padded.digits, side):
            ok = False
    report("padding invariance", ok)

    # column-map / subsequence duality on the right side of the fixed point;
    # u is fixed by theta^p_r, so u[L*n + r] is column r of theta^p_r at u[n], L = ell^p_r
    fixed = sub.power(p_r) if p_r > 1 else sub
    length = 4 * sub.length**2
    letters = window_for_range(sub, 0, length * fixed.length - 1).letters  # u_0 onwards
    ok = all(
        letters[fixed.length * n + r] == col.table[letters[n]]
        for r, col in enumerate(fixed.columns())
        for n in range(length)
    )
    report("subsequence/column duality", ok)

    try:
        rng = toeplitzmod.aperiodic_in_range(sub, -200, 200, certify=True)
        report("toeplitz verdicts vs oracle on ±200", not rng.inconsistencies)
        print(rng.summary())
    except Refusal as exc:
        print(f"note: toeplitz analysis refused ({exc}); skipped")

    return 3 if failures else 0


# -- argument plumbing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Analyze constant-length substitutions: automata, kernels, semigroups, Toeplitz structure.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="substitution JSON file")
        return p

    add("validate", "check the substitution invariants")
    add("simplify", "print the least power with idempotent end columns")

    p = add("fixed-point", "print a window of the two-sided fixed point")
    p.add_argument("--range", required=True, help="window lo..hi (e.g. -8..8)")

    p = add("automaton", "build the direct or reverse machine")
    p.add_argument("--reading", choices=["direct", "reverse"], default="direct")
    p.add_argument("--format", choices=["dot", "json", "table"], default="table")
    p.add_argument("--minimize", action="store_true", help="minimize before printing")

    p = add("kernel", "enumerate the ell-kernel")
    p.add_argument("--side", choices=[kernelmod.ONE_SIDED, kernelmod.TWO_SIDED], default=kernelmod.TWO_SIDED)
    p.add_argument("--depth", type=int, default=None, help="also brute-force count to this depth")

    add("semigroup", "compute the structure semigroup")

    p = add("toeplitz", "classify indices as periodic or aperiodic")
    p.add_argument("--range", required=True, help="index range lo..hi")
    p.add_argument("--certify", action="store_true", help="cross-validate against the window oracle")

    p = add("reduced-graph", "reduced graph of the semigroup machine")
    p.add_argument("--format", choices=["dot", "text"], default="dot")

    add("check", "run the full invariant suite")
    return parser


# built by the first main call, so that importing this module builds nothing;
# every later call in the process parses with it
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # the verb's function is looked up when it runs, so a wrapper put in
    # its place on this module (a tracer's, a test's) is the one called
    command = globals()["cmd_" + args.verb.replace("-", "_")]
    try:
        word_budget()  # a malformed budget is refused before any verb prints
        return command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except SubstratumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
