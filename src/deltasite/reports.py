"""The one result type of deltasite: every verifier returns a `Report`, a
list of `Record`s (check id, instance, status, witness).  CLI commands add
their own records and nest verifier reports with `extend`.  A command report
is deterministic given (model, command, flags, seed), rendered as canonical
JSON or stable plain text."""
from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Record:
    check_id: str
    instance: str
    status: str  # "pass" | "fail" | "info"
    witness: str = ""

    def as_doc(self) -> dict:
        return {"check": self.check_id, "instance": self.instance,
                "status": self.status, "witness": self.witness}


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
        doc = {
            "command": self.command,
            "model_hash": self.model_hash,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "records": [r.as_doc() for r in self.records],
            "summary": self.summary,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

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
