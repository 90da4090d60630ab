"""Check that two revisions write the same bytes.

    python3 tools/same_bytes.py --against <rev> [--rev <rev>]

Exports ``--against`` and ``--rev`` (default HEAD) with ``git archive`` into
a temporary directory and runs one fixed matrix of ``qrewrite`` commands on
each, from each revision's own ``src/``, with BLAS pinned to one thread:

  * the train-1hop and train-multihop set-ups of ``perfbench/workloads.py``
    on seeds 1-3: gen-data, arrange, then train at f64 and f32, once with
    every usable CPU (validation forks a worker) and once under
    ``taskset -c 0``;
  * the generate workload's fixture checkpoint on every arranged test
    record of its data: ``generate --emit-intermediates`` plain, with
    ``--ablate sa``, with ``--ablate ca`` and at ``--precision f32``, each
    followed by ``evaluate``.

Every command runs with relative paths, and its exit status and output go
to one ``commands.txt`` per revision.  Then every file the two runs wrote,
that log included, is compared byte for byte, except
``manifest-generate.json``, which holds an absolute path.  Prints a table of the output directories and the
files that differ; exits 0 when every command succeeded and every file is
equal, 1 when a command failed or a file differs, and 2 when a revision
cannot be exported.
To check uncommitted work, pass ``--rev $(git stash create)`` (after
``git add`` for new files).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import (  # noqa: E402  (needs the paths above)
    ENTITIES, FIXTURE_DATA, TOY_MODEL, TOY_TRAINER, make_workloads,
)

SEEDS = (1, 2, 3)
PRECISIONS = ("f64", "f32")
GENERATE_VARIANTS = {
    "plain": [], "ablate-sa": ["--ablate", "sa"], "ablate-ca": ["--ablate", "ca"],
    "f32": ["--precision", "f32"],
}
SKIPPED = {"manifest-generate.json"}
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
            cmd = ["taskset", "-c", "0", *cmd]
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
             seed: int) -> None:
    run("gen-data", "--out", out, "--hops", hops, "--train", train, "--valid", valid,
        "--test", test, "--entities", ENTITIES, "--seed", seed)


def run_matrix(tree: Path, work: Path) -> int:
    """The fixed matrix of the module docstring, in ``work``; how many of
    its commands failed."""
    work.mkdir()
    run = Runner(tree, work)
    for name, workload in make_workloads().items():
        if name == "generate":
            continue
        splits = ["train", "valid"] if workload.valid_per_hop else ["train"]
        for seed in SEEDS:
            case = f"{name}-s{seed}"
            gen_data(run, f"{case}/data", workload.hops, workload.per_hop,
                     workload.valid_per_hop, 0, seed)
            (work / case / "arranged").mkdir(parents=True, exist_ok=True)
            for split in splits:
                run("arrange", "--in", f"{case}/data/{split}.jsonl",
                    "--out", f"{case}/arranged/{split}.jsonl")
            vocab = (work / case / "data" / "vocab.txt").read_bytes()
            (work / case / "arranged" / "vocab.txt").write_bytes(vocab)
            config = {**TOY_MODEL, **TOY_TRAINER, **workload.trainer}
            (work / case / "config.json").write_text(json.dumps(config, sort_keys=True))
            for precision in PRECISIONS:
                for one_cpu in (False, True):
                    out = f"{case}/train-{precision}-{'one-cpu' if one_cpu else 'all-cpus'}"
                    run("train", "--config", f"{case}/config.json",
                        "--data", f"{case}/arranged", "--out", out,
                        "--precision", precision, one_cpu=one_cpu)

    fx = FIXTURE_DATA
    gen_data(run, "generate/data", fx["hops"], fx["train"], fx["valid"], fx["test"],
             fx["seed"])
    run("arrange", "--in", "generate/data/test.jsonl", "--out", "generate/test.jsonl")
    fixture = Path(os.path.relpath(tree / "perfbench" / "fixture", work))
    for variant, flags in GENERATE_VARIANTS.items():
        out = Path("generate") / variant
        (work / out).mkdir()
        run("generate", "--checkpoint", fixture / "checkpoint.bin",
            "--data", "generate/test.jsonl", "--vocab", fixture / "vocab.txt",
            "--out", out / "pred.jsonl", "--emit-intermediates", *flags)
        run("evaluate", "--pred", out / "pred.jsonl", "--gold", "generate/test.jsonl",
            "--out", out / "report.jsonl")
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


def compare(works: list[Path]) -> bool:
    """Print the table of both runs' output directories and the files that
    differ; whether every file is equal."""
    left, right = map(files_of, works)
    rows: dict[str, list[int]] = {}
    differ = []
    for name in sorted(left.keys() | right.keys()):
        same = (name in left and name in right
                and left[name].read_bytes() == right[name].read_bytes())
        row = rows.setdefault(str(Path(name).parent), [0, 0])
        row[0] += 1
        row[1] += same
        if not same:
            differ.append(name if name in left and name in right
                          else f"{name} (only in {'--against' if name in left else '--rev'})")
    print("| output directory | files | equal |\n|---|---|---|")
    for directory, (n, same) in sorted(rows.items()):
        print(f"| {directory} | {n} | {same} |")
    total = sum(n for n, _ in rows.values())
    print(f"\n{total - len(differ)} of {total} files equal")
    for name in differ:
        print(f"differs: {name}")
    return not differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the revision to compare with")
    parser.add_argument("--rev", default="HEAD", help="the revision checked (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        works, failed = [], 0
        for label, rev in (("against", args.against), ("rev", args.rev)):
            base = Path(tmp) / label
            t0 = time.perf_counter()
            export(rev, base / "tree")
            failed += run_matrix(base / "tree", base / "out")
            print(f"{label} ({rev}): matrix ran in {time.perf_counter() - t0:.0f} s",
                  file=sys.stderr)
            works.append(base / "out")
        same = compare(works)
        if failed:
            print(f"{failed} commands failed (see above)")
        return 0 if same and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
