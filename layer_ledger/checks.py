"""Output checks shared by the workloads.

Each check compares a result document with a figure computed apart from
the program (stdlib ``csv`` counts, raw rows, the paper's tables) or
with another run of the program that must agree with it.
"""

from __future__ import annotations

import sys


class Checker:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def totals_add_up(self, doc: dict) -> None:
        """An estimate's total is the sum of its task minutes."""
        estimate = doc["estimate"]
        minutes = sum(entry["minutes"] for entry in estimate["entries"])
        self.expect(
            abs(minutes - estimate["total_minutes"]) < 1e-9,
            f"{doc['scenario']} ({doc['quality']}): total "
            f"{estimate['total_minutes']} but tasks sum to {minutes}",
        )

    @property
    def correct(self) -> bool:
        return not self.failures

    def report(self) -> None:
        for failure in self.failures:
            print(f"check failed: {failure}", file=sys.stderr)
