"""One-command end-to-end benchmark of the H2Cloud reproduction.

Run ``python3 h2bench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``h2bench/README.md``.
"""
