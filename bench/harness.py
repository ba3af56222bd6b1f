"""Workloads, command execution and output checks for the chevbasis benchmark.

Every workload is a list of argv lists for ``chevbasis.cli.main``, run
in-process.  A command fails when it raises, exits non-zero, writes a
file whose SHA-256 differs from the reference in ``digests.json``, or
(for ``verify``) emits a report that does not pass or a Jacobi sweep that
did not check all ``dim**3`` ordered basis triples.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
DIGESTS = BENCH / "digests.json"

EPSILONS = ("default", "flipped")

# The type lists are part of the workload definitions; see README.md.
# gen takes each type by its default route: closed for the simply laced, fold for the rest.
GEN_SIMPLY_LACED = ("E8", "D16", "A24")
GEN_FOLDED = ("G2", "F4", "B10", "C10", "B12", "C12")
GEN = GEN_SIMPLY_LACED + GEN_FOLDED
VERIFY_LARGE = ("E8", "A24", "B10", "C10")
SMALL_ROUNDTRIP = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4", "D5", "D6",
    "E6", "F4", "G2",
)
WORKLOADS = ("gen", "verify_large", "small_roundtrip")

# Default-epsilon outputs that must equal the committed golden files.
GOLDEN_FILES = {"A2/default.json": "a2.json", "D4/default.json": "d4.json", "G2/default.json": "g2.json"}

_EXCEPTIONAL_ROOTS = {"E6": 72, "E7": 126, "E8": 240, "F4": 48, "G2": 12}


def dimension(label: str) -> int:
    """Dimension of the simple Lie algebra, from the classical root counts."""
    family, rank = label[0], int(label[1:])
    if label in _EXCEPTIONAL_ROOTS:
        roots = _EXCEPTIONAL_ROOTS[label]
    elif family == "A":
        roots = rank * (rank + 1)
    elif family in "BC":
        roots = 2 * rank * rank
    elif family == "D":
        roots = 2 * rank * (rank - 1)
    else:
        raise ValueError(f"no root count for {label}")
    return rank + roots


def expected_suites(label: str) -> set[str]:
    """Report names that a default ``verify`` must produce for this type."""
    suites = {"jacobi", "chevalley", "differential"}
    if label[0] == "A" and int(label[1:]) <= 7:
        suites.add("sl_n")
    return suites


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its outputs are checked against.

    ``outputs`` pairs each written file with its key in the digest table;
    ``verify`` names the type whose reports a verify command must emit.
    """

    argv: tuple[str, ...]
    outputs: tuple[tuple[Path, str], ...] = ()
    verify: str | None = None


def gen_command(label: str, eps: str, work: Path, csv: bool) -> Command:
    stem = f"{label}-{eps}"
    argv = ["gen", "--type", label, "--epsilon", eps, "--out", str(work / f"{stem}.json")]
    outputs = [(work / f"{stem}.json", f"{label}/{eps}.json")]
    if csv:
        argv += ["--csv", str(work / f"{stem}.csv")]
        outputs.append((work / f"{stem}.csv", f"{label}/{eps}.csv"))
    return Command(tuple(argv), tuple(outputs))


def verify_command(label: str, eps: str, work: Path) -> Command:
    return Command(("verify", "--in", str(work / f"{label}-{eps}.json"), "--json"), verify=label)


@dataclass
class Plan:
    """Commands run once per set-up, and the commands of one timed pass."""

    setup: list[Command]
    commands: list[Command]
    epsilon: dict[str, str]


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    """The seed permutes command order and picks the epsilon of each type."""
    rng = random.Random(seed)
    if workload == "small_roundtrip":
        pairs = [(label, eps) for label in SMALL_ROUNDTRIP for eps in EPSILONS]
        commands = [c for label, eps in pairs
                    for c in (gen_command(label, eps, work, csv=False), verify_command(label, eps, work))]
        rng.shuffle(commands)
        # Restore gen-before-verify for each file by swapping positions.
        where = {c: k for k, c in enumerate(commands)}
        for label, eps in pairs:
            g = where[gen_command(label, eps, work, csv=False)]
            v = where[verify_command(label, eps, work)]
            if v < g:
                commands[g], commands[v] = commands[v], commands[g]
        return Plan([], commands, {})
    labels = {"gen": GEN, "verify_large": VERIFY_LARGE}[workload]
    epsilon = {label: rng.choice(EPSILONS) for label in labels}
    order = list(labels)
    rng.shuffle(order)
    if workload == "verify_large":
        setup = [gen_command(label, epsilon[label], work, csv=False) for label in labels]
        return Plan(setup, [verify_command(label, epsilon[label], work) for label in order], epsilon)
    return Plan([], [gen_command(label, epsilon[label], work, csv=True) for label in order], epsilon)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def load_golden() -> dict[str, bytes]:
    return {key: (GOLDEN / name).read_bytes() for key, name in GOLDEN_FILES.items()}


class Runner:
    """Runs commands through ``main`` in-process and checks every output.

    ``clock`` times each command; see ``calibrate.Calibrator.clock``.
    """

    def __init__(self, main: Callable[[list[str]], int], digests: dict[str, str], golden: dict[str, bytes],
                 clock: Callable[[], float] = time.perf_counter):
        self.main = main
        self.digests = digests
        self.golden = golden
        self.clock = clock

    def execute(self, cmd: Command) -> tuple[float, int | None, str]:
        """Seconds spent in ``main``, its exit code (None if it raised), stdout."""
        out = io.StringIO()
        start = self.clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash counts as a failed command, not a benchmark abort
            print(f"bench: {' '.join(cmd.argv)} raised {exc!r}", file=sys.stderr)
            code = None
        return self.clock() - start, code, out.getvalue()

    def check(self, cmd: Command, code: int | None, stdout: str) -> list[str]:
        """Every way this command's result differs from the reference."""
        problems = [] if code == 0 else [f"exit code {code}"]
        for path, key in cmd.outputs:
            try:
                data = path.read_bytes()
            except OSError as exc:
                problems.append(f"{key}: {exc}")
                continue
            if sha256(data) != self.digests.get(key):
                problems.append(f"{key}: digest mismatch")
            if key in self.golden and data != self.golden[key]:
                problems.append(f"{key}: differs from the golden file")
        if cmd.verify is not None:
            problems += self._check_reports(cmd.verify, stdout)
        return problems

    @staticmethod
    def _check_reports(label: str, stdout: str) -> list[str]:
        try:
            reports = json.loads(stdout)
            failed = [r["suite"] for r in reports if not r["passed"]]
            suites = {r["suite"] for r in reports}
            jacobi = [r["checked"] for r in reports if r["suite"] == "jacobi"]
        except (ValueError, TypeError, KeyError):
            return [f"{label}: verify output is not a list of reports"]
        problems = [f"{label}: {suite} failed" for suite in failed]
        if suites != expected_suites(label):
            problems.append(f"{label}: suites {sorted(suites)}")
        if jacobi != [dimension(label) ** 3]:
            problems.append(f"{label}: jacobi checked {jacobi}, expected {dimension(label) ** 3}")
        return problems


@dataclass
class Tally:
    """Time inside ``main`` and command outcomes over one or more passes."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.seconds += other.seconds
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_pass(runner: Runner, commands: list[Command]) -> Tally:
    """Run the commands in order; only the time inside ``main`` is counted."""
    tally = Tally()
    for cmd in commands:
        seconds, code, stdout = runner.execute(cmd)
        problems = runner.check(cmd, code, stdout)
        tally.seconds += seconds
        tally.attempted += 1
        if problems:
            tally.failed += 1
            tally.problems += [f"{' '.join(cmd.argv)}: {p}" for p in problems]
    return tally
