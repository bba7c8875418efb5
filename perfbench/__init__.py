"""Job-stream benchmark for the chambers library.

Run `python3 perfbench/run.py --workload <check|cover|coxeter|cosets>
--seed <n> --seconds <s> --trace <0|1>` from the repository root.  The last
line of standard output is one JSON object with the verdict summary and the
metrics; see run.py for what each metric means.
"""
