"""Shared experiment infrastructure: results, tables, verdicts.

An :class:`ExperimentResult` is a small, printable record: an id and title,
a column header, data rows, free-form notes, and a dictionary of
``checks`` — named boolean verdicts asserting the paper's claimed *shape*
(e.g. ``{"log_beats_log2": True}``). The test suite and EXPERIMENTS.md both
read the checks, so a reproduction regression flips a named flag rather
than silently drifting a number.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.sim.parallel import default_workers, get_default_workers

__all__ = [
    "ExperimentResult",
    "format_table",
    "json_safe",
    "COST_HEADER",
    "default_workers",
    "get_default_workers",
]

# ``default_workers`` (and its getter) is re-exported here as the
# experiments' knob for trial throughput: the CLI wraps a run in
# ``with default_workers(args.workers):`` and every ``run_trials`` call
# inside — none of which takes a worker count — dispatches to the
# process pool. Experiments stay oblivious to it; the
# seed-sharding contract (docs/parallelism.md) guarantees their numbers
# cannot change.

#: Column names of the per-experiment cost table (see
#: :attr:`ExperimentResult.timings`): sweep-point label, wall-clock
#: seconds, and simulated rounds per second.
COST_HEADER = ("stage", "wall_time_s", "rounds_per_sec")


def json_safe(value):
    """Recursively convert ``value`` into plain JSON round-trippable types.

    Numpy scalars become their Python equivalents (``.item()``), tuples
    become lists, dict keys become strings. Floats survive a JSON round
    trip bit-exactly (``json`` emits the shortest ``repr``), which is
    what lets a checkpointed :class:`ExperimentResult` render the *same
    bytes* in a report as the live result it was saved from — the
    ``--resume`` contract (see :mod:`repro.experiments.sweep`).
    """
    if isinstance(value, np.generic):
        # Before the plain-type check: np.float64 subclasses float and
        # would otherwise slip through unconverted.
        return json_safe(value.item())
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy scalars and arrays
        return json_safe(tolist())
    return str(value)


def format_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render rows as a fixed-width text table.

    Column widths adapt to content; floats are shown with 4 significant
    digits. This is deliberately plain text — the benchmark harness pipes
    it straight to the terminal and into ``bench_output.txt``.
    """
    def render(cell) -> str:
        if isinstance(cell, np.generic):
            # Numpy scalars render via their Python equivalents, so a
            # result restored from a sweep checkpoint (where cells have
            # been through a JSON round trip) renders identical bytes.
            cell = cell.item()
        if isinstance(cell, bool):
            return "yes" if cell else "no"
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(col) for col in header]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(name.ljust(widths[i]) for i, name in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes
    ----------
    experiment_id, title:
        The DESIGN.md index entry this result reproduces.
    header, rows:
        The table (rows are sequences aligned with ``header``).
    checks:
        Named shape verdicts; ``all(checks.values())`` is the
        reproduction's pass condition for this experiment.
    notes:
        Free-form findings (fitted laws, constants, caveats).
    timings:
        Optional cost rows ``(label, wall_time_s, rounds_per_sec)`` —
        typically one per sweep point, fed by
        :attr:`repro.sim.runner.TrialStats.total_wall_time` and
        :attr:`~repro.sim.runner.TrialStats.rounds_per_second` — so
        reports show what each reproduced number cost to measure.
    """

    experiment_id: str
    title: str
    header: List[str]
    rows: List[List] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    timings: List[Tuple[str, float, float]] = field(default_factory=list)

    def add_timing(self, label: str, wall_time_s: float, rounds_per_sec: float) -> None:
        """Append one cost row (see :attr:`timings`)."""
        self.timings.append((label, float(wall_time_s), float(rounds_per_sec)))

    @property
    def passed(self) -> bool:
        """Whether every shape check held."""
        return all(self.checks.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering of the whole result (sweep checkpoints).

        Cells go through :func:`json_safe`, so numpy scalars are
        converted to their Python equivalents and the round trip through
        :meth:`from_dict` renders byte-identical reports.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "header": [str(name) for name in self.header],
            "rows": json_safe(self.rows),
            "checks": {str(name): bool(ok) for name, ok in self.checks.items()},
            "notes": [str(note) for note in self.notes],
            "timings": json_safe(self.timings),
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result saved by :meth:`to_dict`."""
        return cls(
            experiment_id=document["experiment_id"],
            title=document["title"],
            header=list(document["header"]),
            rows=[list(row) for row in document.get("rows", [])],
            checks=dict(document.get("checks", {})),
            notes=list(document.get("notes", [])),
            timings=[
                (str(label), float(wall), float(rps))
                for label, wall, rps in document.get("timings", [])
            ],
        )

    def to_csv(self, path: str) -> None:
        """Write the table rows as CSV (header included).

        The CSV carries the data only; checks and notes live in the
        markdown report. Downstream plotting pipelines consume this.
        """
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.header)
            writer.writerows(self.rows)

    def format(self) -> str:
        """Full printable report: title, table, checks, notes."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(format_table(self.header, self.rows))
        if self.checks:
            lines.append("")
            for name, ok in sorted(self.checks.items()):
                lines.append(f"  check {name}: {'PASS' if ok else 'FAIL'}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.timings:
            total = sum(wall for _, wall, _ in self.timings)
            lines.append(f"  cost: {total:.2f}s total")
            for label, wall, rps in self.timings:
                lines.append(f"    {label}: {wall:.2f}s, {rps:.0f} rounds/s")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()
