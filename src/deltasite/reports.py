"""The one result type of deltasite: every verifier returns a `Report`, a
list of records (check id, instance, status, witness).  CLI commands add
their own records and nest verifier reports with `extend`.  A command report
is deterministic given (model, command, flags, seed), rendered as canonical
JSON or stable plain text.

A report stores its records as rows: `Report.rows` is a list of exact
`tuple`s of four `str`.  The verifiers' loops append rows to it directly;
`add` and `extend` serve the callers that write few.  The cyclic garbage
collector untracks a tuple of strings at the first collection that sees it,
so a report of a hundred thousand rows costs later collections nothing; a
`Record`, a tuple subclass, would stay tracked.  `Report.records` is a view:
reading it builds a fresh list of `Record`s from the rows, for readers that
want the fields by name, and a `Record` equals its row.

Canonical JSON is `json.dumps(doc, indent=2, sort_keys=True)` plus a
newline, byte for byte.  Only the header (command, model hash, params) and
the summary go through `json.dumps`; every record is written from one fixed
template of its four sorted keys, each value escaped by
`json.encoder.encode_basestring_ascii`, the escaper `json.dumps` itself
uses.  The rows are escaped a column at a time and the whole document is
one join.  So record fields are `str` by contract: the template escapes them
as strings."""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

# one record at its depth in the report: the keys in sorted order
_RECORD = ('    {\n      "check": %s,\n      "instance": %s,\n'
           '      "status": %s,\n      "witness": %s\n    }')

_STATUS = itemgetter(2)


class Record(NamedTuple):
    check_id: str
    instance: str
    status: str  # "pass" | "fail" | "info"
    witness: str = ""


@dataclass
class Report:
    """Records in order, stored as rows.  Verifiers fill only `rows`; a CLI
    command also sets the header fields that rendering shows.  The records
    given to the constructor may be `Record`s: they are stored as rows."""

    command: str = ""
    model_hash: str | None = None
    params: dict = field(default_factory=dict)
    rows: list[tuple[str, str, str, str]] = field(default_factory=list)

    def __post_init__(self):
        self.rows = list(map(tuple, self.rows))

    @property
    def records(self) -> list[Record]:
        """The rows as `Record`s, built on each read: append through `rows`,
        `add` or `extend`, not to this list."""
        return list(map(Record._make, self.rows))

    def add(self, check_id: str, instance: str, ok: bool | None, witness: str = ""):
        status = "info" if ok is None else ("pass" if ok else "fail")
        self.rows.append((check_id, instance, status, witness))

    def extend(self, other: "Report", prefix: str = ""):
        """Append other's records, each instance prefixed with prefix."""
        self.rows += ([(c, prefix + i, s, w) for c, i, s, w in other.rows]
                      if prefix else other.rows)

    def failures(self) -> list[Record]:
        return [r for r in self.records if r.status == "fail"]

    @property
    def passed(self) -> bool:
        return "fail" not in map(_STATUS, self.rows)

    @property
    def summary(self) -> dict:
        counts = Counter(map(_STATUS, self.rows))
        return {"pass": counts["pass"], "fail": counts["fail"], "info": counts["info"],
                "total": len(self.rows)}

    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json(self) -> str:
        # the keys before "records" end "\n}", the one after starts "{\n"
        head = json.dumps({"command": self.command, "model_hash": self.model_hash,
                           "params": self.params}, indent=2, sort_keys=True)
        tail = json.dumps({"summary": self.summary}, indent=2, sort_keys=True)
        rows = self.rows
        if not rows:
            return f'{head[:-2]},\n  "records": [],\n{tail[2:]}\n'
        # the template's text around its four values; records end ",\n" but the last
        opening, *keys, closing = _RECORD.split("%s")
        esc = encode_basestring_ascii
        # check ids, statuses and many witnesses repeat: each distinct one is
        # escaped once, with the template's text around it, and shared
        check = cache(lambda c: f"{opening}{esc(c)}{keys[0]}")
        status = cache(lambda s: f"{keys[1]}{esc(s)}{keys[2]}")
        witness = cache(esc)
        parts = [f'{head[:-2]},\n  "records": [\n']
        parts += chain.from_iterable(zip(
            map(check, map(itemgetter(0), rows)), map(esc, map(itemgetter(1), rows)),
            map(status, map(itemgetter(2), rows)), map(witness, map(itemgetter(3), rows)),
            repeat(f"{closing},\n")))
        parts[-1] = f'{closing}\n  ],\n{tail[2:]}\n'
        return "".join(parts)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.model_hash:
            lines.append(f"model: sha256:{self.model_hash}")
        if self.params:
            lines.append("params: " + " ".join(
                f"{k}={self.params[k]}" for k in sorted(self.params)))
        for check_id, instance, status, witness in self.rows:
            entry = f"[{status}] {check_id} {instance}"
            if witness:
                entry += f" :: {witness}"
            lines.append(entry)
        s = self.summary
        verdict = "OK" if self.passed else "FAIL"
        lines.append(f"summary: {s['pass']} pass, {s['fail']} fail, "
                     f"{s['info']} info -> {verdict}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()
