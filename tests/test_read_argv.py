"""The command line is read from ``cli._OPTIONS`` without argparse.

``cli._read_argv`` answers for a line of a verb and its flags, each at most
once and each value one token not starting with ``-``; argparse, built
from the same table, stays the reference and parses every other line.
These tests hold the reader to argparse on a generated corpus, and make
sure that the lines the benchmark and the README run are read by the
table, so that no parser is built for them.
"""

import contextlib
import io
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

from weavent import cli

ROOT = Path(__file__).resolve().parent.parent

FLAGS = sorted({flag for options in cli._OPTIONS.values() for flag in options})
WRONG_VERBS = ["no-such-verb", "", "-h", "--help", "CHECK", "chec", "--es"]
ODD_FLAGS = ["-h", "--help", "--no-such-flag", "--", "-", "-e", "---es", "--dom", "--as",
             "--f", "--fus", "--de", "--o", "--w", "--t", "--es=", "--depth=3",
             "--weak=1", "--to=domain"]
PLAIN = ["F.json", "x", "", "a b", "a=b", "dot", "json", "domain", "epes", "check",
         "es", "3", "+2", " 4"]
NUMBERS = ["0", "3", "07", " 4", "+2", "1_0", "٣"]
VALUES = PLAIN + NUMBERS + ["-", "--", "-1", "-x", "--es", "abc", "1.5", "1e3", "x y"]
TOKENS = FLAGS + ODD_FLAGS + VALUES


def plain_line(rng: random.Random) -> list:
    """A verb and some of its own flags, each once, with plain values."""
    verb = rng.choice(list(cli._OPTIONS))
    options = cli._OPTIONS[verb]
    line = [verb]
    for flag in rng.sample(list(options), rng.randint(0, min(4, len(options)))):
        line.append(flag)
        kind = options[flag][1]
        if kind is not bool:
            line.append(rng.choice(NUMBERS if kind is int else PLAIN))
    if verb == "convert" and "--to" not in line and rng.random() < 0.7:
        line += ["--to", rng.choice(PLAIN)]
    return line


def mutate(rng: random.Random, line: list) -> list:
    """``line`` with one token inserted, replaced, dropped, repeated,
    abbreviated or joined to the next by ``=``."""
    if not line:
        return [rng.choice(WRONG_VERBS + list(cli._OPTIONS))]
    line = list(line)
    k = rng.randrange(len(line))
    how = rng.randrange(7)
    if how == 0:
        line.insert(rng.randint(1, len(line)), rng.choice(TOKENS))
    elif how == 1 and k:
        line[k] = rng.choice(VALUES)
    elif how == 2:
        del line[k]
    elif how == 3 and k:
        line += line[k:k + 2]
    elif how == 4 and line[k].startswith("--") and len(line[k]) > 3:
        line[k] = line[k][:rng.randint(3, len(line[k]) - 1)]
    elif how == 5 and k + 1 < len(line):
        line[k:k + 2] = [f"{line[k]}={line[k + 1]}"]
    elif how == 6:
        line[0] = rng.choice(WRONG_VERBS + list(cli._OPTIONS))
    return line


def corpus(seed: int, size: int) -> list:
    rng = random.Random(seed)
    lines = []
    while len(lines) < size:
        line = plain_line(rng)
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            line = mutate(rng, line)
        lines.append(line)
    return lines


def parsed(argv):
    """What argparse makes of ``argv``: its namespace, or None when it
    exits (an error, or ``--help``)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


def fields(namespace):
    """The namespace's attributes in order, each with the type of its value,
    so that ``True`` does not pass for ``1``."""
    return [(key, type(value), value) for key, value in vars(namespace).items()]


def test_the_reader_agrees_with_argparse_on_a_generated_corpus():
    lines = corpus(7, 20_000)
    read = exited = 0
    answered = set()
    for argv in lines:
        got, want = cli._read_argv(argv), parsed(argv)
        exited += want is None
        if got is None:
            continue
        read += 1
        assert want is not None and fields(got) == fields(want), argv
        answered.update((argv[0], token) for token in argv[1:] if token in FLAGS)
    # the corpus reaches every verb, every flag and every odd token, and
    # each of the three outcomes
    assert answered == {(verb, flag) for verb, options in cli._OPTIONS.items()
                        for flag in options}
    assert set(TOKENS) | set(WRONG_VERBS) <= {token for argv in lines for token in argv}
    assert read > 5_000 and exited > 2_000 and len(lines) - read - exited > 1_000


def _workload_argvs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
        return [(name, seed, job.argv) for name in sorted(workloads.WORKLOADS)
                for seed in (1, 2) for job in workloads.build(name, seed)[1]]
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_every_benchmark_line_is_read_from_the_table():
    argvs = _workload_argvs()
    assert {name for name, _, _ in argvs} == {"domain-verdicts", "es-session", "trace-derive"}
    assert [argv for _, _, argv in argvs if cli._read_argv(list(argv)) is None] == []


def readme_lines():
    """The argvs of the README's command-line examples, comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_every_readme_line_is_read_from_the_table():
    lines = readme_lines()
    assert len(lines) > 10
    assert [argv for argv in lines if cli._read_argv(argv) is None] == []


def test_a_read_line_needs_no_parser_in_a_fresh_interpreter(tmp_path):
    """Neither ``import weavent.cli`` nor a line the table reads builds an
    ``ArgumentParser`` or imports ``locale``, which argparse's messages
    load: the cost does not move into the benchmark's set-up time."""
    code = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import weavent.cli\n"
        "print(len(built), 'locale' in sys.modules)\n"
        "weavent.cli.main(['check', '--es', sys.argv[1]])\n"
        "print(len(built), 'locale' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "fixtures" / "e_run.es.json")],
                          capture_output=True, text=True, check=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.stdout.splitlines()[0] == "0 False"
    assert proc.stderr == "0 False\n"

