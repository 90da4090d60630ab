"""The qrewrite benchmark: seeded workloads, output checks and a traced run.

Run it from the repository root as ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/NOTES.md``.
"""
