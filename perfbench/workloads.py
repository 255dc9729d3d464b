"""The benchmark's workloads and their small variants.

Every workload is closed-loop with one client: the benchmark starts one
fresh process per iteration and waits for it to end before starting the
next.  README.md says why each workload was chosen.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

TABLE_CURVES = (
    "D3", "D4", "D7", "D8", "D11", "D12", "D16",
    "D19", "D27", "D28", "D43", "D67", "D163",
)

CSV_NAME = "records.csv"


@dataclass(frozen=True)
class Workload:
    """One set of CLI invocations that together make an iteration."""

    name: str
    command: str  # "scan" or "verify"
    curves: tuple[str, ...]
    bound: int  # --xmax for scan, --pmax for verify
    workers: int = 1
    write_csv: bool = False
    # (g, f) of the scanned curve's order, for workloads that write a CSV:
    # the CSV check recomputes Nm(pi) and Tr(pi) from it without going
    # through the package.
    order: tuple[int, int] | None = None

    def argvs(self, seed: int, workers: int, out_dir: str) -> list[list[str]]:
        """The cmfactors command lines of one iteration, in order."""
        if self.command == "verify":
            return [["verify", "--curve", c, "--pmax", str(self.bound)] for c in self.curves]
        argv = [
            "scan", "--curve", self.curves[0], "--xmax", str(self.bound),
            "--seed", str(seed), "--workers", str(workers),
        ]
        if self.write_csv:
            argv += ["--out", os.path.join(out_dir, CSV_NAME)]
        return [argv]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-D4-out", "scan", ("D4",), 10**6, write_csv=True, order=(-1, 1)),
        Workload("scan-D163-par", "scan", ("D163",), 3 * 10**6, workers=2),
        Workload("verify-all", "verify", TABLE_CURVES, 5000),
    )
}

# Bounds of the small mode, which the benchmark's own tests run.
SMALL_BOUNDS = {"scan-D4-out": 2 * 10**4, "scan-D163-par": 2 * 10**4, "verify-all": 500}


def get(name: str, small: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, bound=SMALL_BOUNDS[name]) if small else w


def reference_key(name: str, small: bool) -> str:
    return name + "/small" if small else name
