"""The unit of linter output: one :class:`Finding` per rule violation.

Findings are plain, ordered, hashable records so that every downstream
consumer — the text reporter and the JSON formatter — can treat them as
values.  File paths are stored repo-relative in POSIX form, which keeps
reports identical across operating systems and checkout locations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location.

    Ordering is (file, line, rule_id, message) so sorted finding lists —
    and therefore lint output — are deterministic.
    """

    file: str
    line: int
    rule_id: str
    message: str

    def format(self) -> str:
        """``file:line: RULE message`` — the one-line text rendering."""
        return f"{self.file}:{self.line}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule_id,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Finding":
        return cls(
            file=str(data["file"]),
            line=int(data["line"]),
            rule_id=str(data["rule"]),
            message=str(data["message"]),
        )
