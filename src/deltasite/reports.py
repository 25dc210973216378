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
newline, byte for byte, but the indenting encoder, which is pure Python, is
not run on the whole document.  The frame is written from fixed text: the
header's keys in sorted order, each params key escaped, each header value by
`json.dumps` (only a non-empty list or dict value goes through the indenting
encoder, re-indented to its depth), and the summary's four counts from one
template.  Every record is written from one fixed template of its four
sorted keys, each value escaped by `json.encoder.encode_basestring_ascii`,
the escaper `json.dumps` itself uses; each distinct check id, status and
witness is escaped once, on first use (a dict over the distinct values),
and the document is one join of those pieces.  So record fields are `str`
by contract, and so are params keys, as flag names are."""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

# one record at its depth in the report: the keys in sorted order
_RECORD = ('    {\n      "check": %s,\n      "instance": %s,\n'
           '      "status": %s,\n      "witness": %s\n    }')

_STATUS = itemgetter(2)


def _value(value, depth: int) -> str:
    """A header value as the indenting encoder writes it `depth` levels deep.
    Only a non-empty list or dict goes through that encoder, re-indented; a
    scalar or an empty container reads the same from the C encoder."""
    if value and isinstance(value, (list, tuple, dict)):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
    return json.dumps(value)


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
        esc = encode_basestring_ascii
        params = ",\n".join(f"    {esc(k)}: {_value(v, 2)}" for k, v in sorted(self.params.items()))
        params = f"{{\n{params}\n  }}" if params else "{}"
        head = (f'{{\n  "command": {_value(self.command, 1)},\n'
                f'  "model_hash": {_value(self.model_hash, 1)},\n  "params": {params},\n')
        n = self.summary
        tail = (f'  "summary": {{\n    "fail": {n["fail"]},\n    "info": {n["info"]},\n'
                f'    "pass": {n["pass"]},\n    "total": {n["total"]}\n  }}\n}}\n')
        rows = self.rows
        if not rows:
            return f'{head}  "records": [],\n{tail}'
        # check ids, statuses and many witnesses repeat: each distinct one is
        # escaped once, on first use, and kept with the template's text around
        # it; every record ends ",\n", and the last one's is cut
        opening, to_instance, to_status, to_witness, closing = _RECORD.split("%s")
        check, status, witness = {}, {}, {}
        parts = [f'{head}  "records": [\n']
        extend = parts.extend
        for c, i, s, w in rows:
            extend((check.get(c) or check.setdefault(c, opening + esc(c) + to_instance), esc(i),
                    status.get(s) or status.setdefault(s, to_status + esc(s) + to_witness),
                    witness.get(w) or witness.setdefault(w, f"{esc(w)}{closing},\n")))
        parts[-1] = f"{parts[-1][:-2]}\n  ],\n{tail}"
        return "".join(parts)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.model_hash:
            lines.append(f"model: sha256:{self.model_hash}")
        if self.params:
            lines.append("params: " + " ".join(
                f"{k}={self.params[k]}" for k in sorted(self.params)))
        lines += [f"[{status}] {check_id} {instance} :: {witness}" if witness
                  else f"[{status}] {check_id} {instance}"
                  for check_id, instance, status, witness in self.rows]
        s = self.summary
        verdict = "FAIL" if s["fail"] else "OK"
        lines.append(f"summary: {s['pass']} pass, {s['fail']} fail, "
                     f"{s['info']} info -> {verdict}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()
