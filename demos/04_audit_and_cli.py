"""Self-audits and the command-line surface.

The audits replay seeded random experiments: every sampled nonnegative
flag must classify into the predicted cell with positive coordinates,
and the matrix-semigroup oracle must agree with the chart-based
classifier.  The same reports are available from the CLI.  Run with

    python3 demos/04_audit_and_cli.py
"""

import json

from tnnflag.audit import audit_decomposition, audit_semigroup
from tnnflag.cli import main as cli_main


def main() -> None:
    report = audit_decomposition(3, samples=5, seed=7)
    print("decomposition audit (n=3, 5 samples/cell, seed 7):")
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))

    report = audit_semigroup(3, samples=5, seed=7)
    print("\nsemigroup audit (n=3, 5 samples, seed 7):")
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))

    print("\nthe same through the CLI (`tnnflag cells --n 3`):")
    code = cli_main(["cells", "--n", "3"])
    print(f"exit code {code}")


if __name__ == "__main__":
    main()
