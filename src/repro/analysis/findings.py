"""Finding records and path canonicalization shared by linter and CLI."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import PurePath


def canonical_file(path: object, keep: int = 1) -> str:
    """A stable, location-independent spelling of a source path.

    Paths inside the package are canonicalized to start at ``src/`` so a
    finding matches its baseline entry whether the linter was invoked on
    ``src``, ``src/repro`` or an absolute path; files outside the
    package (test fixtures) reduce to their last ``keep`` parts: the
    basename, or as many directories as tell same-named files apart.
    """
    parts = PurePath(str(path)).parts
    for anchor in ("src", "repro"):
        if anchor in parts:
            start = parts.index(anchor)
            if anchor == "repro":
                return "/".join(("src",) + parts[start:])
            return "/".join(parts[start:])
    return "/".join(parts[-keep:]) if parts else str(path)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    file: str
    line: int
    symbol: str
    message: str
    hint: str = ""

    @property
    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used for baseline matching.

        Line numbers are deliberately excluded so unrelated edits above
        a suppressed violation do not invalidate its baseline entry.
        """
        return (self.rule, self.file, self.symbol)

    def render(self) -> str:
        text = f"{self.file}:{self.line}: {self.rule} [{self.symbol}] {self.message}"
        if self.hint:
            text += f"\n    fix: {self.hint}"
        return text

    def to_dict(self) -> dict:
        return asdict(self)
