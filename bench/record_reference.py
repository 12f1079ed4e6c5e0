"""Record the default-seed outputs every benchmark run is compared against.

    python3 bench/record_reference.py

Writes ``bench/reference.json``.  Record it once from a commit whose outputs
are trusted; a later commit that changes the outputs beyond the workloads'
tolerances fails the benchmark's correctness check.
"""

import json

from checkout import use_checkout_source

use_checkout_source()

import workloads  # noqa: E402


def main():
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        reference[name] = []
        for variant in range(workloads.VARIANTS):
            inputs = workload.setup(workloads.DEFAULT_SEED, variant)
            output = workload.call(inputs)
            problems = workload.check(inputs, output)
            if problems:
                raise SystemExit(f"{name} variant {variant}: " + "; ".join(problems))
            reference[name].append({key: value.tolist()
                                    for key, value in workload.summary(output).items()})
    with open(workloads.REFERENCE_FILE, "w", encoding="utf8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
