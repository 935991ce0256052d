"""RAID-0 striping across member disks.

The stripe map is the standard one: chunk ``i`` of the logical address
space lives on disk ``i % n`` at chunk offset ``i // n``.  An access is
split into per-disk runs that proceed in parallel; completion is the
max of the member completions — large sequential accesses approach
``n×`` a single spindle's streaming bandwidth, while small random
accesses still pay a full seek on one member.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.storage.disk import Disk, DiskProfile, SATA_2007
from repro.util.stats import Counter, Tally
from repro.util.units import KiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class Raid0(Tally):
    """A striped array presenting a flat logical byte space."""

    TALLY = ("reads", "writes", "bytes")

    def __init__(
        self,
        sim: "Simulator",
        disks: int = 8,
        profile: DiskProfile = SATA_2007,
        chunk_size: int = 64 * KiB,
        name: str = "raid",
    ) -> None:
        if disks < 1:
            raise ValueError("disks must be >= 1")
        if chunk_size < 512:
            raise ValueError("chunk_size must be >= 512")
        self.sim = sim
        self.chunk_size = chunk_size
        self.name = name
        self.members = [
            Disk(sim, profile, name=f"{name}.d{i}") for i in range(disks)
        ]
        self.capacity = profile.capacity * disks
        self.stats = self._tally(Counter())

    def set_slowdown(self, factor: float) -> None:
        """Degrade every member (fault injection: slow-disk episodes)."""
        for disk in self.members:
            disk.set_slowdown(factor)

    def _split(self, offset: int, size: int) -> dict[int, list[tuple[int, int]]]:
        """Map a logical range to per-disk (member_offset, length) runs,
        merging contiguous chunk fragments per member."""
        per_disk: dict[int, list[tuple[int, int]]] = {}
        n = len(self.members)
        cs = self.chunk_size
        pos = offset
        end = offset + size
        while pos < end:
            chunk = pos // cs
            within = pos - chunk * cs
            take = min(cs - within, end - pos)
            disk_idx = chunk % n
            member_off = (chunk // n) * cs + within
            runs = per_disk.setdefault(disk_idx, [])
            if runs and runs[-1][0] + runs[-1][1] == member_off:
                runs[-1] = (runs[-1][0], runs[-1][1] + take)
            else:
                runs.append((member_off, take))
            pos += take
        return per_disk

    def access_time(self, offset: int, size: int, write: bool = False) -> float:
        """Reserve all members; return completion of the slowest.  An
        access inside one chunk goes straight to its member, unsplit."""
        if offset < 0 or size < 0:
            raise ValueError("negative offset/size")
        if offset + size > self.capacity:
            raise ValueError("access beyond array capacity")
        if write:
            self._n_writes += 1
        else:
            self._n_reads += 1
        self._n_bytes += size
        if size == 0:
            # Zero-length access: a bare command to member 0.
            return self.members[0].access_time(offset % self.members[0].profile.capacity, 0, write)
        members = self.members
        cs = self.chunk_size
        chunk = offset // cs
        within = offset - chunk * cs
        if within + size <= cs:
            n = len(members)
            return members[chunk % n].access_time((chunk // n) * cs + within, size, write)
        done = self.sim._now
        for disk_idx, runs in self._split(offset, size).items():
            disk = members[disk_idx]
            for member_off, length in runs:
                done = max(done, disk.access_time(member_off, length, write))
        return done

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Raid0 {self.name} x{len(self.members)} chunk={self.chunk_size}>"
