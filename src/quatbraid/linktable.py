"""Bundled table of links given as braid closures with optional Seifert matrices."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from quatbraid.braids import BraidWord
from quatbraid.cover import check_matrix


@dataclass(frozen=True)
class LinkEntry:
    name: str
    braid: BraidWord
    seifert: tuple[tuple[int, ...], ...] | None

    @property
    def seifert_rows(self) -> list[list[int]] | None:
        if self.seifert is None:
            return None
        return [list(r) for r in self.seifert]


def parse(data, source: str | Path) -> list[LinkEntry]:
    """The link table in JSON data read from source; a ValueError names the source."""
    if not (isinstance(data, dict) and data.get("schema") == "quatbraid-link-table-v1"
            and isinstance(data.get("links"), list)):
        raise ValueError(f"{source}: unrecognized link-table schema")
    entries = []
    for index, raw in enumerate(data["links"]):
        if not isinstance(raw, dict):
            raise ValueError(f"{source}: link entry {index} is not an object")
        where = f"{source}: link entry {index}" + (f" ({raw['name']!r})" if "name" in raw else "")
        missing = [key for key in ("name", "strands", "word") if key not in raw]
        if missing:
            raise ValueError(f"{where} lacks {', '.join(map(repr, missing))}")
        seifert = raw.get("seifert")
        try:
            braid = BraidWord(raw["strands"], tuple(raw["word"]))
            if seifert is not None:
                check_matrix(seifert)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        rows = None if seifert is None else tuple(tuple(r) for r in seifert)
        entries.append(LinkEntry(raw["name"], braid, rows))
    return entries


def load_bundled() -> list[LinkEntry]:
    text = resources.files("quatbraid").joinpath("data/links.json").read_text()
    return parse(json.loads(text), "data/links.json")


def read_json(path: str | Path):
    """The parsed JSON file at path; the one reader of every JSON file a command is given."""
    try:
        with open(path) as fh:  # not Path(path), which reads the path "" as "."
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep to parse
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def load_file(path: str | Path) -> list[LinkEntry]:
    """The link table in the JSON file at path; a ValueError names the path."""
    return parse(read_json(path), path)
