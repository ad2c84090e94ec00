"""Publication of merged outputs (paper §4.4).

"While these files could be published as-is, it would require a
significant amount of metadata, which increases the expense of
publication and further handling" — the point of merging is to make the
publication step cheap.  This module performs that step: merged outputs
are registered as a new DBS dataset carrying provenance back to the
parent dataset/workflow, with per-file metadata cost accounted so the
merge-vs-publish trade-off is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..dbs import DBS, Dataset, FileRecord, LumiSection
from ..storage import StoredFile

__all__ = ["PublicationRecord", "Publisher"]


@dataclass(frozen=True)
class PublicationRecord:
    """Outcome of publishing one workflow's outputs."""

    dataset_name: str
    n_files: int
    total_bytes: float
    total_events: int
    #: Metadata entries written (files × per-file records); the cost the
    #: paper's merging exists to reduce.
    metadata_entries: int
    parent: Optional[str] = None


class Publisher:
    """Registers workflow outputs as a new DBS dataset with provenance."""

    #: Metadata records written per published file (catalog entry,
    #: parentage, checksums, location).
    METADATA_PER_FILE = 4

    def __init__(self, dbs: DBS):
        self.dbs = dbs
        self.records: List[PublicationRecord] = []

    def publish(
        self,
        workflow: str,
        files: Sequence[StoredFile],
        events_per_byte: float,
        parent: Optional[str] = None,
        processed_name: str = "lobster-v1",
        tier: str = "USER",
        verify_with=None,
        ledger=None,
        bus=None,
    ) -> PublicationRecord:
        """Register *files* as dataset ``/<workflow>/<processed>/<tier>``.

        *events_per_byte* converts output sizes back to event counts (the
        inverse of the analysis code's output_bytes_per_event).

        Publication is the last integrity hop: with *verify_with* (a
        StorageElement) each file's checksum is re-verified immediately
        before registration, and with *ledger* (a LobsterDB) only
        ledger-committed files are accepted.  Either violation raises —
        corrupt or uncommitted data is never silently published.
        """
        if events_per_byte < 0:
            raise ValueError("events_per_byte must be non-negative")
        ordered = sorted(files, key=lambda f: f.name)
        for f in ordered:
            if ledger is not None:
                state = ledger.ledger_state(f.name)
                if state is not None and state != "committed":
                    raise ValueError(
                        f"refusing to publish {f.name}: ledger state {state!r}"
                    )
            if verify_with is not None and verify_with.exists(f.name):
                # Raises IntegrityError on checksum mismatch.
                verify_with.verify(f.name)
        name = f"/{workflow}/{processed_name}/{tier}"
        records = []
        for i, f in enumerate(ordered):
            n_events = int(round(f.size_bytes * events_per_byte))
            records.append(
                FileRecord(
                    lfn=f"/store/user/{workflow}/published/file{i:06d}.root",
                    size_bytes=int(f.size_bytes),
                    n_events=n_events,
                    # Published user files carry a synthetic lumi each;
                    # fine-grained provenance lives in the parentage
                    # metadata, not re-derived lumi lists.
                    lumis=(LumiSection(1, i + 1),),
                )
            )
        dataset = Dataset(name, records)
        self.dbs.register(dataset)
        record = PublicationRecord(
            dataset_name=name,
            n_files=len(records),
            total_bytes=float(sum(f.size_bytes for f in records)),
            total_events=sum(f.n_events for f in records),
            metadata_entries=len(records) * self.METADATA_PER_FILE,
            parent=parent,
        )
        self.records.append(record)
        if ledger is not None and hasattr(ledger, "checkpoint"):
            # Publication is a recovery point too: a master killed right
            # after registering the dataset must converge on restart.
            ledger.checkpoint("publish.dataset")
        if bus is not None and bus:
            # The terminal event of a workflow's causal story: with
            # tracing on it becomes a span under the run root.
            from ..desim.bus import Topics

            bus.port(Topics.PUBLISH_DATASET).emit(
                workflow=workflow,
                dataset=name,
                files=record.n_files,
                events=record.total_events,
                nbytes=record.total_bytes,
            )
        return record

    def publication_cost(self, n_files: int) -> int:
        """Metadata entries needed to publish *n_files* outputs."""
        return n_files * self.METADATA_PER_FILE

    def merge_savings(self, unmerged_count: int, merged_count: int) -> int:
        """Metadata entries saved by merging before publication."""
        return self.publication_cost(unmerged_count) - self.publication_cost(
            merged_count
        )
