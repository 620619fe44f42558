"""Compare the CLI output of two checkouts of substratum, input by input.

    python scripts/cli_diff.py dump SRC_DIR OUT.jsonl   # run the verbs with SRC_DIR/substratum
    python scripts/cli_diff.py compare OLD.jsonl NEW.jsonl

``dump`` runs ``validate``, ``simplify``, ``toeplitz --range=-200..200``
(plain and ``--certify``), ``toeplitz --certify --range=-5000..-4600`` (a
range whose residue classes do not start at 0), ``toeplitz
--range=1000000000000..1000000000400`` (tail lookups after long digit
words), ``reduced-graph --format text|dot``, ``semigroup``, ``kernel --side
one-sided|two-sided``, ``kernel --side one-sided --depth 2``, ``fixed-point
--range=-300..300``, ``fixed-point`` on the far windows
``--range=1000000000000..1000000000200`` and
``--range=-1000000000200..-1000000000000`` (read index by index with
``Dfao.run``), ``automaton --reading direct|reverse --minimize --format
table``, ``automaton --reading reverse --format table`` (unminimized: the
orbit's state order and labels), ``automaton --reading direct|reverse
--format json|dot`` (unminimized) and ``check`` in-process on the paper
examples, on the six-letter ℓ=4 input ``a->abea, b->dcdc, c->aeee, d->ecde,
e->abfb, f->eeba`` (seed a·a), on the ℓ=4 input ``a->ddae, b->badc,
c->abed, d->cada, e->dbeb`` (seed a·c, seed periods 3 and 5) and on
``check_corpus(s)`` + ``machine_corpus(s)`` of ``bench/corpus.py`` for s in
{1, 2}, and writes one JSON line (input, verb, exit code, stdout, stderr)
per run.  Run it once per checkout, each in a fresh interpreter.
``compare`` counts the identical runs per verb and names every run that
differs in stdout, stderr or exit code, with how many stdout lines a line
diff removes and adds and the first line of each.  It ends with a table of
the differing runs per verb and exit-code transition (``check 3->0: 32``);
runs whose stdout and exit code agree, so that only stderr differs, are
marked ``stderr only`` there and in their ``DIFF`` line.
"""

from __future__ import annotations

import collections
import contextlib
import difflib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VERBS = {
    "validate": ["validate", None],
    "simplify": ["simplify", None],
    "toeplitz": ["toeplitz", None, "--range=-200..200"],
    "toeplitz-certify": ["toeplitz", None, "--certify", "--range=-200..200"],
    "toeplitz-certify-off": ["toeplitz", None, "--certify", "--range=-5000..-4600"],
    "toeplitz-far": ["toeplitz", None, "--range=1000000000000..1000000000400"],
    "rg-text": ["reduced-graph", None, "--format", "text"],
    "rg-dot": ["reduced-graph", None, "--format", "dot"],
    "semigroup": ["semigroup", None],
    "kernel-one": ["kernel", None, "--side", "one-sided"],
    "kernel-two": ["kernel", None, "--side", "two-sided"],
    "kernel-depth2": ["kernel", None, "--side", "one-sided", "--depth", "2"],
    "fixed-point": ["fixed-point", None, "--range=-300..300"],
    "fixed-point-far": ["fixed-point", None, "--range=1000000000000..1000000000200"],
    "fixed-point-far-neg": ["fixed-point", None, "--range=-1000000000200..-1000000000000"],
    "min-direct": ["automaton", None, "--reading", "direct", "--minimize", "--format", "table"],
    "min-reverse": ["automaton", None, "--reading", "reverse", "--minimize", "--format", "table"],
    "reverse": ["automaton", None, "--reading", "reverse", "--format", "table"],
    "json-direct": ["automaton", None, "--reading", "direct", "--format", "json"],
    "json-reverse": ["automaton", None, "--reading", "reverse", "--format", "json"],
    "dot-direct": ["automaton", None, "--reading", "direct", "--format", "dot"],
    "dot-reverse": ["automaton", None, "--reading", "reverse", "--format", "dot"],
    "check": ["check", None],
}


def inputs(Substitution, corpus):
    def parts(letters, length, rules, seed):
        return Substitution.from_parts(list(letters), length, rules, seed=list(seed))

    pd = parts("ab", 2, {"a": "ab", "b": "aa"}, "aa")
    named = [
        ("pd", pd),
        ("pd2", pd.simplify()[0]),
        ("bigdiag", parts("abc", 3, {"a": "acb", "b": "baa", "c": "bba"}, "ba")),
        ("thue-morse", parts("ab", 2, {"a": "ab", "b": "ba"}, "ba")),
        ("height-two", parts("ab", 3, {"a": "aba", "b": "bab"}, "ba")),
        ("periodic-right-seed", parts("ab", 2, {"a": "bb", "b": "ab"}, "ba")),
        (
            "six-letter",
            parts(
                "abcdef",
                4,
                {"a": "abea", "b": "dcdc", "c": "aeee", "d": "ecde", "e": "abfb", "f": "eeba"},
                "aa",
            ),
        ),
        (
            "coprime-seed-periods",
            parts("abcde", 4, {"a": "ddae", "b": "badc", "c": "abed", "d": "cada", "e": "dbeb"}, "ac"),
        ),
    ]
    for s in (1, 2):
        named += [(f"check{s}-{i}", e.sub) for i, e in enumerate(corpus.check_corpus(s))]
        named += [(f"machine{s}-{i}", e.sub) for i, e in enumerate(corpus.machine_corpus(s))]
    return named


def as_json(sub) -> dict:
    a = sub.alphabet
    return {
        "alphabet": list(a.letters),
        "length": sub.length,
        "rules": {a[i]: [a[o] for o in rule] for i, rule in enumerate(sub.rules)},
        "seed": [a[sub.seed[0]], a[sub.seed[1]]],
    }


def dump(src: str, out_path: str) -> None:
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "bench")]
    os.environ.setdefault("SUBSTRATUM_BUDGET", "1000000")
    import corpus
    from substratum import Substitution
    from substratum.cli import main

    with tempfile.TemporaryDirectory() as tmp, open(out_path, "w", encoding="utf-8") as out:
        path = os.path.join(tmp, "sub.json")
        for name, sub in inputs(Substitution, corpus):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(as_json(sub), fh)
            for verb, argv in VERBS.items():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        rc = main([path if a is None else a for a in argv])
                    except Exception as exc:  # recorded, so both sides must raise alike
                        rc = f"raised {type(exc).__name__}: {exc}"
                record = [name, verb, rc, stdout.getvalue(), stderr.getvalue()]
                out.write(json.dumps(record, ensure_ascii=False) + "\n")


def line_changes(old: str, new: str) -> tuple[list[str], list[str]]:
    """The stdout lines that a line diff removes from ``old`` and adds in ``new``."""
    a, b = old.splitlines(), new.splitlines()
    removed, added = [], []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            removed += a[i1:i2]
            added += b[j1:j2]
    return removed, added


def compare(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = [json.loads(line) for line in fh]
    with open(new_path, encoding="utf-8") as fh:
        new = [json.loads(line) for line in fh]
    if [r[:2] for r in old] != [r[:2] for r in new]:
        print("the two dumps cover different runs")
        return 1
    counts: collections.Counter = collections.Counter()
    transitions: collections.Counter = collections.Counter()
    for (name, verb, rc, out, err), (_, _, rc2, out2, err2) in zip(old, new):
        same = (rc, out, err) == (rc2, out2, err2)
        counts[verb, "identical" if same else "different"] += 1
        if not same:
            mark = " (stderr only)" if (rc, out) == (rc2, out2) else ""
            transitions[verb, f"{rc}->{rc2}{mark}"] += 1
            print(f"DIFF {name} {verb}: exit {rc} -> {rc2}{mark}")
            removed, added = line_changes(out, out2)
            for sign, lines in (("-", removed), ("+", added)):
                if lines:
                    print(f"  {sign}{len(lines)} stdout lines, first: {lines[0]}")
    for key in sorted(counts):
        print(*key, counts[key], sep="\t")
    if transitions:
        print("exit-code transitions of the differing runs:")
    for (verb, change), n in sorted(transitions.items()):
        print(f"  {verb} {change}: {n}")
    differ = sum(n for (_, kind), n in counts.items() if kind == "different")
    print(f"{len(old)} runs, {differ} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("dump", "compare"):
        raise SystemExit(__doc__)
    if sys.argv[1] == "dump":
        dump(sys.argv[2], sys.argv[3])
    else:
        raise SystemExit(compare(sys.argv[2], sys.argv[3]))
