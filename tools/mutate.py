"""Mutation audit of the test suite: `python tools/mutate.py`, no arguments.

Makes MUTANTS single-site mutants of src/diamond_bottleneck (SEED fixes the
sample, which holds a site of every module that has one): < <=, > >=, + -,
* / and == != swap both ways, an integer constant gains 1, a float constant
is multiplied by 1.0001, and no mutant leaves a value unchanged.  Once the
unmutated suite runs clean, Tier-1 runs against each mutant, without -x and
with criterion 2 (failing on the unmutated package) deselected, in a
temporary copy of the checkout per worker; src/ is never written.  One JSON
record per mutant goes to tools/mutants.jsonl: site, change, outcome
(killed, survived or timeout) and every failing test id.  Survivors are
classified by hand in their records; a rerun carries the class "equivalent"
and its reason over to a mutant that survives again, and marks any other
survivor "unclassified".
"""

from __future__ import annotations

import ast
import json
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/diamond_bottleneck")
RECORDS = ROOT / "tools" / "mutants.jsonl"
SEED = 26
MUTANTS = 320
# a mutant still running after this many baseline times is killed by timeout
TIMEOUT_FACTOR = 3
DESELECT = "tests/test_acceptance.py::test_criterion_2_high_snr_saturation"

# each swap pair side by side: operator i swaps with operator i ^ 1
OPERATORS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq, ast.Add, ast.Sub, ast.Mult, ast.Div)
SYMBOLS = dict(zip(OPERATORS, "< <= > >= == != + - * /".split()))
SWAPS = {op: OPERATORS[i ^ 1] for i, op in enumerate(OPERATORS)}


def _edits(node):
    """(field, index, replacement, change) for each mutation of one node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                new = SWAPS[type(op)]
                yield "ops", i, new(), f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}"
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
        new = SWAPS[type(node.op)]
        yield "op", None, new(), f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}"
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value + 1 if type(node.value) is int else node.value * 1.0001
        if value != node.value:
            yield "value", None, value, f"{node.value!r} -> {value!r}"


def sites() -> list[dict]:
    found = []
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for index, node in enumerate(ast.walk(ast.parse(source))):
            for edit, (field, slot, _, change) in enumerate(_edits(node)):
                found.append({
                    "module": path.name, "line": node.lineno, "column": node.col_offset,
                    "end": node.end_col_offset, "change": change, "code": lines[node.lineno - 1].strip(),
                    "node": index, "edit": edit,
                })
    return found


def sample() -> list[dict]:
    candidates = sites()
    random.Random(SEED).shuffle(candidates)
    first = {}
    for site in candidates:
        first.setdefault(site["module"], site)
    rest = [site for site in candidates if site not in first.values()]
    chosen = (list(first.values()) + rest)[:MUTANTS]
    return sorted(chosen, key=lambda s: (s["module"], s["line"], s["column"], s["change"]))


def mutated_source(site: dict) -> str:
    tree = ast.parse((ROOT / PACKAGE / site["module"]).read_text())
    node = list(ast.walk(tree))[site["node"]]
    field, slot, replacement, _ = list(_edits(node))[site["edit"]]
    if slot is None:
        setattr(node, field, replacement)
    else:
        getattr(node, field)[slot] = replacement
    return ast.unparse(tree)


def run_suite(workspace: Path, limit: float | None) -> tuple[str, float, list[str]]:
    """Tier-1 in `workspace`: outcome, seconds and failing test ids."""
    report = workspace / "failed.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(workspace / "src"), str(ROOT / "tools")]),
               PYTHONDONTWRITEBYTECODE="1", MUTATE_REPORT=str(report))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutate",
               "--continue-on-collection-errors", "--deselect", DESELECT]
    start = time.monotonic()
    child = subprocess.Popen(command, cwd=workspace, env=env, start_new_session=True,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        code = child.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout", time.monotonic() - start, []
    seconds = time.monotonic() - start
    failed = json.loads(report.read_text()) if report.exists() else []
    report.unlink(missing_ok=True)
    if code and not failed:
        failed = [f"pytest exit {code}"]
    return ("killed" if code else "survived"), seconds, failed


def _key(record: dict) -> tuple:
    return tuple(record[key] for key in ("module", "line", "column", "end", "change"))


def main() -> int:
    chosen = sample()
    previous = {}
    if RECORDS.exists():
        previous = {_key(r): r for r in map(json.loads, RECORDS.read_text().splitlines())}
    workers = os.cpu_count() or 1
    scratch = Path(tempfile.mkdtemp(prefix="mutate-"))
    try:
        spaces = queue.Queue()
        for n in range(workers):
            workspace = scratch / f"w{n}"
            shutil.copytree(ROOT, workspace, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.jsonl"))
            spaces.put(workspace)
        outcome, baseline, failed = run_suite(scratch / "w0", None)
        if outcome != "survived":
            print(f"the unmutated suite is not clean: {failed}", file=sys.stderr)
            return 1
        print(f"baseline {baseline:.1f} s; {len(chosen)} mutants on {workers} workers", flush=True)

        def run(site: dict) -> dict:
            workspace = spaces.get()
            target = workspace / PACKAGE / site["module"]
            original = target.read_text()
            try:
                target.write_text(mutated_source(site))
                outcome, seconds, failed = run_suite(workspace, TIMEOUT_FACTOR * baseline)
            finally:
                target.write_text(original)
                spaces.put(workspace)
            record = {key: site[key] for key in ("module", "line", "column", "end", "change", "code")}
            record.update(outcome=outcome, seconds=round(seconds, 1), failed=failed)
            if outcome == "survived":
                old = previous.get(_key(record), {})
                equivalent = old.get("class") == "equivalent"
                record.update({"class": "equivalent" if equivalent else "unclassified",
                               "reason": old.get("reason") if equivalent else None})
            print(f"{outcome:8} {len(failed):4} {site['module']}:{site['line']} {site['change']}", flush=True)
            return record

        with ThreadPoolExecutor(workers) as pool:
            records = list(pool.map(run, chosen))
    finally:
        shutil.rmtree(scratch)
    RECORDS.write_text("".join(json.dumps(record) + "\n" for record in records))
    counts = {o: sum(r["outcome"] == o for r in records) for o in ("killed", "timeout", "survived")}
    unclassified = sum(r.get("class") == "unclassified" for r in records)
    print(f"{counts}, {unclassified} survivors unclassified; records in {RECORDS}")
    return 0


# pytest plugin side, loaded in the child as `-p mutate`

_failed: list[str] = []


def pytest_configure(config):
    # Shrinking a failing example changes no verdict, only the time it takes.
    from hypothesis import Phase, settings

    settings.register_profile(
        "mutate", settings.default, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    settings.load_profile("mutate")


def pytest_runtest_logreport(report):
    if report.failed:
        _failed.append(report.nodeid)


pytest_collectreport = pytest_runtest_logreport


def pytest_sessionfinish(session):
    Path(os.environ["MUTATE_REPORT"]).write_text(json.dumps(_failed))


if __name__ == "__main__":
    sys.exit(main())
