"""Train the fixture checkpoint of the ``generate`` workload.

    python3 perfbench/fixture/build.py

Generates the fixture world (perfbench/workloads.py: FIXTURE_DATA), trains
the toy model on it under the adaptive curriculum (FIXTURE_TRAINER), and
refuses the result unless every greedy step on the test split ends in
<eos> before max_len.  It then writes checkpoint.bin, vocab.txt and their
SHA256SUMS beside this file.  Takes about three minutes on one core.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qrewrite import autodiff, cli, dataio  # noqa: E402
from qrewrite.docgraph import make_step_inputs  # noqa: E402
from qrewrite.vocab import Vocab  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    FIXTURE_DATA, FIXTURE_FILES, FIXTURE_TRAINER, TOY_MODEL, gen_data_args,
)


def run_cli(*argv) -> None:
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        sys.exit(f"qrewrite {' '.join(map(str, argv))} exited {rc}")


def truncated_steps(checkpoint: Path, data: Path) -> tuple[int, int]:
    voc = Vocab.load(data / "vocab.txt")
    model = dataio.load_model(checkpoint, expect_vocab_sha256=voc.sha256())
    steps = truncated = 0
    for rec in dataio.read_records(data / "test.jsonl"):
        ex = dataio.arranged_example(rec)
        inputs = make_step_inputs(ex, voc, model.cfg.max_len)
        with autodiff.no_grad():
            result = model.rewrite_forward(inputs, voc.bos_id, voc.eos_id)
        steps += len(result.truncated)
        truncated += sum(result.truncated)
    return truncated, steps


def main() -> int:
    work = ROOT / "perfbench" / "work" / "fixture-build"
    shutil.rmtree(work, ignore_errors=True)
    data, run = work / "data", work / "run"
    fx = FIXTURE_DATA
    run_cli(*gen_data_args(data, fx["hops"], fx["train"], fx["valid"], fx["test"],
                           fx["entities"], fx["seed"]))
    for split in ("train", "valid", "test"):
        src = data / f"{split}.jsonl"
        tmp = data / f"{split}.arr.jsonl"
        run_cli("arrange", "--in", src, "--out", tmp)
        tmp.replace(src)
    config = work / "config.json"
    config.write_text(json.dumps({**TOY_MODEL, **FIXTURE_TRAINER}, sort_keys=True))
    run_cli("train", "--config", config, "--data", data, "--out", run)

    checkpoint = run / "checkpoint-final.bin"
    truncated, steps = truncated_steps(checkpoint, data)
    if truncated:
        sys.exit(f"{truncated} of {steps} greedy test steps hit max_len; "
                 f"train longer before using this checkpoint as the fixture")
    shutil.copyfile(checkpoint, HERE / "checkpoint.bin")
    shutil.copyfile(data / "vocab.txt", HERE / "vocab.txt")
    lines = [f"{hashlib.sha256((HERE / n).read_bytes()).hexdigest()}  {n}"
             for n in FIXTURE_FILES]
    (HERE / "SHA256SUMS").write_text("\n".join(lines) + "\n")
    print(f"fixture written: {steps} greedy test steps, none truncated")
    print("\n".join(lines))
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
