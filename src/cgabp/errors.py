"""Shared exception types."""

from __future__ import annotations


class DegenerateGeometryError(ValueError):
    """Collinear or coincident input points where a plane/frame is required."""


class InfeasibleInstanceError(ValueError):
    """A consecutive triangle admits no Euclidean embedding (|cos theta| >= 1)."""


class InvalidInstanceError(ValueError):
    """Instance violates the discretizability assumptions; carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "instance is not discretizable: "
            f"{len(report.missing_clique_edges)} missing clique edge(s), "
            f"{len(report.triangle_violations)} triangle violation(s)"
        )


class FileFormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")
