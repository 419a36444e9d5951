"""Print a ``repro run|all --json`` report with its timings removed.

Every ``seconds`` field is dropped, so two runs of the same
experiments compare byte for byte (CI diffs the full E9+E13 sweep
across backends this way)::

    python -m repro.cli run E9 E13 --json > report.json
    python benchmarks/report_without_seconds.py report.json
"""

import json
import sys


def without_seconds(value):
    if isinstance(value, dict):
        return {
            key: without_seconds(item)
            for key, item in value.items()
            if key != "seconds"
        }
    if isinstance(value, list):
        return [without_seconds(item) for item in value]
    return value


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        report = json.load(handle)
    print(json.dumps(without_seconds(report), indent=2, ensure_ascii=False))
