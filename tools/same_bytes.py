"""Compare two revisions' bytes over a fixed matrix of commands, and check
that forked generation writes the same bytes as one-CPU generation.

    python3 tools/same_bytes.py --against <rev> [--rev <rev>]

Exports ``--against`` and ``--rev`` (default HEAD) with ``git archive`` into
a temporary directory and runs one fixed matrix of ``qrewrite`` commands on
each, from each revision's own ``src/``, with BLAS pinned to one thread:

  * the train-1hop and train-multihop set-ups of ``perfbench/workloads.py``
    on seeds 1-3, and the two-pack set-up (1/2/3 hops, 4 training and 12
    validation records per hop, 30 entities, seed 3, d_model 16), whose
    36-record validation pool spans two packs: gen-data, arrange, then
    train at f64 and f32, each once, with every usable CPU (training runs
    in one process);
  * the generate workload's fixture checkpoint on every arranged test
    record of its data: ``generate --emit-intermediates`` plain, with
    ``--ablate sa``, with ``--ablate ca`` and at ``--precision f32``, each
    followed by ``evaluate``.  Each is written twice: with every usable
    CPU, where each share of packs but the parent's is decoded in a forked
    child, into a ``*-all-cpus`` directory, and pinned with ``taskset`` to
    the first usable CPU, where every pack is decoded in-process, into its
    ``*-one-cpu`` twin (4 pairs).

Every command runs with relative paths, and its exit status and output go
to one ``commands.txt`` per revision.  ``manifest-generate.json``, which
holds an absolute path, is never compared.  Prints the number of usable
CPUs; a table of the output directories and the files that differ between
the revisions; and, for each revision, a table of the 4 forked generate
outputs against their one-CPU twins.  Exit status:

  0  every command succeeded and every file is equal;
  1  for information: files differ between the revisions, or a command of
     ``--against`` failed or one of its forked generate outputs differs
     from its twin (a change may move bytes on purpose, and a fix must not
     fail because its parent was broken);
  2  a revision cannot be exported;
  3  a command of ``--rev`` failed, or a forked generate output of
     ``--rev`` differs from its one-CPU twin.

With one usable CPU both sides of every generate pair run in-process, so
the pairs prove nothing.  To check uncommitted work, pass ``--rev $(git
stash create)`` (after ``git add`` for new files).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import (  # noqa: E402  (needs the paths above)
    ENTITIES, FIXTURE_DATA, TOY_MODEL, TOY_TRAINER, make_workloads,
)

SEEDS = (1, 2, 3)
TWO_PACKS = {"hops": "1,2,3", "train": 4, "valid": 12, "test": 1, "entities": 30,
             "seed": 3}
TWO_PACKS_CONFIG = {"d_model": 16, "n_heads": 2, "d_ff": 24, "warmup_steps": 2,
                    "epochs_per_main_complexity": 2, "lr_alpha": 0.01}
PRECISIONS = ("f64", "f32")
GENERATE_VARIANTS = {
    "plain": [], "ablate-sa": ["--ablate", "sa"], "ablate-ca": ["--ablate", "ca"],
    "f32": ["--precision", "f32"],
}
SKIPPED = {"manifest-generate.json"}
SIDES = {False: "-all-cpus", True: "-one-cpu"}  # by one_cpu
CPUS = sorted(os.sched_getaffinity(0))
BLAS_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}


class Runner:
    """Runs ``qrewrite`` commands of one revision's tree in ``work``."""

    def __init__(self, tree: Path, work: Path):
        self.work = work
        self.env = {**os.environ, **BLAS_ONE_THREAD, "PYTHONPATH": str(tree / "src")}
        self.log = work / "commands.txt"
        self.failed = 0

    def __call__(self, *argv, one_cpu: bool = False) -> None:
        argv = [str(a) for a in argv]
        cmd = [sys.executable, "-m", "qrewrite.cli", *argv]
        if one_cpu:
            cmd = ["taskset", "-c", str(CPUS[0]), *cmd]
        done = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                              text=True)
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write(f"$ {' '.join(argv)}{' (one CPU)' if one_cpu else ''}\n"
                     f"exit {done.returncode}\n{done.stdout}{done.stderr}")
        if done.returncode:
            self.failed += 1
            print(f"  qrewrite {' '.join(argv)} exited {done.returncode}: "
                  f"{done.stderr.strip()}", file=sys.stderr)


def gen_data(run: Runner, out: str, hops: str, train: int, valid: int, test: int,
             seed: int, entities: int = ENTITIES) -> None:
    run("gen-data", "--out", out, "--hops", hops, "--train", train, "--valid", valid,
        "--test", test, "--entities", entities, "--seed", seed)


def train_case(run: Runner, case: str, config: dict, hops: str, train: int,
               valid: int, test: int, seed: int, entities: int = ENTITIES) -> None:
    """gen-data into ``case``, arrange its training and validation splits,
    then train ``config`` on them at each precision."""
    gen_data(run, f"{case}/data", hops, train, valid, test, seed, entities)
    (run.work / case / "arranged").mkdir(parents=True, exist_ok=True)
    for split in ["train", "valid"] if valid else ["train"]:
        run("arrange", "--in", f"{case}/data/{split}.jsonl",
            "--out", f"{case}/arranged/{split}.jsonl")
    vocab = (run.work / case / "data" / "vocab.txt").read_bytes()
    (run.work / case / "arranged" / "vocab.txt").write_bytes(vocab)
    (run.work / case / "config.json").write_text(json.dumps(config, sort_keys=True))
    for precision in PRECISIONS:
        run("train", "--config", f"{case}/config.json", "--data", f"{case}/arranged",
            "--out", f"{case}/train-{precision}", "--precision", precision)


def run_matrix(tree: Path, work: Path) -> int:
    """The fixed matrix of the module docstring, in ``work``; how many of
    its commands failed."""
    work.mkdir()
    run = Runner(tree, work)
    for name, workload in make_workloads().items():
        if name == "generate":
            continue
        config = {**TOY_MODEL, **TOY_TRAINER, **workload.trainer}
        for seed in SEEDS:
            train_case(run, f"{name}-s{seed}", config, workload.hops, workload.per_hop,
                       workload.valid_per_hop, 0, seed)
    train_case(run, "two-packs", TWO_PACKS_CONFIG, **TWO_PACKS)

    fx = FIXTURE_DATA
    gen_data(run, "generate/data", fx["hops"], fx["train"], fx["valid"], fx["test"],
             fx["seed"])
    run("arrange", "--in", "generate/data/test.jsonl", "--out", "generate/test.jsonl")
    fixture = Path(os.path.relpath(tree / "perfbench" / "fixture", work))
    for variant, flags in GENERATE_VARIANTS.items():
        for one_cpu, side in SIDES.items():
            out = Path("generate") / f"{variant}{side}"
            (work / out).mkdir()
            run("generate", "--checkpoint", fixture / "checkpoint.bin",
                "--data", "generate/test.jsonl", "--vocab", fixture / "vocab.txt",
                "--out", out / "pred.jsonl", "--emit-intermediates", *flags,
                one_cpu=one_cpu)
            run("evaluate", "--pred", out / "pred.jsonl", "--gold", "generate/test.jsonl",
                "--out", out / "report.jsonl", one_cpu=one_cpu)
    return run.failed


def export(rev: str, dest: Path) -> None:
    """``git archive`` of ``rev`` unpacked into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    if archive.returncode:  # git has said why
        print(f"git archive {rev} failed", file=sys.stderr)
        sys.exit(2)
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def files_of(work: Path) -> dict[str, Path]:
    return {str(p.relative_to(work)): p for p in sorted(work.rglob("*"))
            if p.is_file() and p.name not in SKIPPED}


def differing(left: dict[str, Path], right: dict[str, Path], sides: tuple[str, str]
              ) -> list[str]:
    """The names of ``left`` and ``right`` whose bytes differ or that only
    one of them holds, the latter marked with its ``sides`` label."""
    return [name if name in left and name in right
            else f"{name} (only in {sides[name in right]})"
            for name in sorted(left.keys() | right.keys())
            if not (name in left and name in right
                    and left[name].read_bytes() == right[name].read_bytes())]


def compare(against: Path, rev: Path) -> bool:
    """Print the table of both revisions' output directories and the files
    that differ; whether every file is equal."""
    left, right = files_of(against), files_of(rev)
    differ = differing(left, right, ("--against", "--rev"))
    rows = Counter(str(Path(name).parent) for name in left.keys() | right.keys())
    unequal = Counter(str(Path(name).parent) for name in differ)
    print("| output directory | files | equal |\n|---|---|---|")
    for directory, n in sorted(rows.items()):
        print(f"| {directory} | {n} | {n - unequal[directory]} |")
    total = sum(rows.values())
    print(f"\n{total - len(differ)} of {total} files equal")
    for name in differ:
        print(f"differs: {name}")
    return not differ


def compare_twins(label: str, work: Path) -> bool:
    """Print the table of ``work``'s forked outputs against their one-CPU
    twins; whether every pair is equal."""
    pairs: dict[str, dict[bool, Path]] = {}
    for path in sorted(p for p in work.rglob("*") if p.is_dir()):
        for one_cpu, side in SIDES.items():
            if path.name.endswith(side):
                pairs.setdefault(str(path.relative_to(work))[:-len(side)], {})[one_cpu] = path
    print(f"\n{label}: forked outputs against their one-CPU twins\n"
          f"| output ({' and '.join(SIDES.values())}) | files | verdict |\n|---|---|---|")
    unequal = 0
    for stem, twins in sorted(pairs.items()):
        left, right = (files_of(twins[k]) if k in twins else {} for k in SIDES)
        differ = differing(left, right, tuple(SIDES.values()))
        unequal += bool(differ)
        verdict = f"differs: {', '.join(differ)}" if differ else "equal"
        print(f"| {stem} | {len(left.keys() | right.keys())} | {verdict} |")
    print(f"\n{len(pairs) - unequal} of {len(pairs)} pairs equal")
    return not unequal


def verdict(against: Path, rev: Path, failed_against: int = 0, failed_rev: int = 0
            ) -> int:
    """Print every table for the matrix outputs ``against`` and ``rev``, and
    the commands that failed in each; the exit status of the module
    docstring."""
    same = compare(against, rev)
    twins_against = compare_twins("--against", against)
    twins_rev = compare_twins("--rev", rev)
    for label, failed in (("--against", failed_against), ("--rev", failed_rev)):
        if failed:
            print(f"{label}: {failed} commands failed (see above)")
    if failed_rev or not twins_rev:
        return 3
    return 0 if same and twins_against and not failed_against else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the revision to compare with")
    parser.add_argument("--rev", default="HEAD", help="the revision checked (default HEAD)")
    args = parser.parse_args(argv)
    print(f"usable CPUs: {len(CPUS)}; one-CPU runs are pinned to CPU {CPUS[0]}")
    if len(CPUS) == 1:
        print("with one usable CPU both sides of every generate pair run "
              "in-process, so the pairs prove nothing")
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        works, failed = [], []
        for label, rev in (("against", args.against), ("rev", args.rev)):
            base = Path(tmp) / label
            t0 = time.perf_counter()
            export(rev, base / "tree")
            failed.append(run_matrix(base / "tree", base / "out"))
            print(f"{label} ({rev}): matrix ran in {time.perf_counter() - t0:.0f} s",
                  file=sys.stderr)
            works.append(base / "out")
        return verdict(*works, *failed)


if __name__ == "__main__":
    sys.exit(main())
