"""The one result type of deltasite: every verifier returns a `Report`, a
list of `Record`s (check id, instance, status, witness).  CLI commands add
their own records and nest verifier reports with `extend`.  A command report
is deterministic given (model, command, flags, seed), rendered as canonical
JSON or stable plain text.

Canonical JSON is `json.dumps(doc, indent=2, sort_keys=True)` plus a
newline, byte for byte.  Only the header (command, model hash, params) and
the summary go through `json.dumps`; every record is written from one fixed
template of its four sorted keys, each value escaped by
`json.encoder.encode_basestring_ascii`, the escaper `json.dumps` itself
uses.  So record fields are `str` by contract: the template escapes them as
strings."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

# one record at its depth in the report: the keys in sorted order
_RECORD = ('    {\n      "check": %s,\n      "instance": %s,\n'
           '      "status": %s,\n      "witness": %s\n    }')


@dataclass(slots=True)
class Record:
    check_id: str
    instance: str
    status: str  # "pass" | "fail" | "info"
    witness: str = ""


@dataclass
class Report:
    """Records in order.  Verifiers fill only `records`; a CLI command also
    sets the header fields that rendering shows."""

    command: str = ""
    model_hash: str | None = None
    params: dict = field(default_factory=dict)
    records: list[Record] = field(default_factory=list)

    def add(self, check_id: str, instance: str, ok: bool | None, witness: str = ""):
        status = "info" if ok is None else ("pass" if ok else "fail")
        self.records.append(Record(check_id, instance, status, witness))

    def extend(self, other: "Report", prefix: str = ""):
        """Append other's records, each instance prefixed with prefix."""
        self.records.extend(
            (Record(r.check_id, prefix + r.instance, r.status, r.witness)
             for r in other.records) if prefix else other.records)

    def failures(self) -> list[Record]:
        return [r for r in self.records if r.status == "fail"]

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "info": 0}
        for r in self.records:
            counts[r.status] += 1
        counts["total"] = len(self.records)
        return counts

    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json(self) -> str:
        # the keys before "records" end "\n}", the one after starts "{\n"
        head = json.dumps({"command": self.command, "model_hash": self.model_hash,
                           "params": self.params}, indent=2, sort_keys=True)
        tail = json.dumps({"summary": self.summary}, indent=2, sort_keys=True)
        esc = encode_basestring_ascii
        records = ",\n".join([
            _RECORD % (esc(r.check_id), esc(r.instance), esc(r.status), esc(r.witness))
            for r in self.records])
        body = f"[\n{records}\n  ]" if self.records else "[]"
        return f'{head[:-2]},\n  "records": {body},\n{tail[2:]}\n'

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.model_hash:
            lines.append(f"model: sha256:{self.model_hash}")
        if self.params:
            lines.append("params: " + " ".join(
                f"{k}={self.params[k]}" for k in sorted(self.params)))
        for r in self.records:
            entry = f"[{r.status}] {r.check_id} {r.instance}"
            if r.witness:
                entry += f" :: {r.witness}"
            lines.append(entry)
        s = self.summary
        verdict = "OK" if self.passed else "FAIL"
        lines.append(f"summary: {s['pass']} pass, {s['fail']} fail, "
                     f"{s['info']} info -> {verdict}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()
