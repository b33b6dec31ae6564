"""Tool version skew tracking across platforms.

Section 3.4 ("Tool version skew"): "Even if a CAD vendor has ported a tool
to all of the platforms in use on a design project, the vendor may not
support all platforms equally.  Bug fixes and new tool releases sometimes
take weeks to propagate across all of the platforms a vendor supports.
Before purchasing a tool, the user should verify the vendor's track record
in supporting the platforms the user will be using."

:class:`ReleaseTracker` records release availability events per platform
and computes exactly the numbers a purchasing decision needs: current skew
(who is behind), per-platform propagation lag, and the vendor's track
record summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ReleaseEvent:
    """Version ``version`` became available on ``platform`` at day ``day``."""

    tool: str
    version: str
    platform: str
    day: int


class ReleaseTracker:
    """Availability history for one vendor's tools across platforms."""

    def __init__(self, platforms: List[str]) -> None:
        if not platforms:
            raise ValueError("need at least one platform")
        self.platforms = list(platforms)
        self._events: List[ReleaseEvent] = []

    def record(self, tool: str, version: str, platform: str, day: int) -> ReleaseEvent:
        if platform not in self.platforms:
            raise ValueError(f"unknown platform {platform!r}")
        event = ReleaseEvent(tool, version, platform, day)
        self._events.append(event)
        return event

    def available_version(self, tool: str, platform: str, day: int) -> Optional[str]:
        """Newest version of ``tool`` available on ``platform`` at ``day``."""
        candidates = [
            e for e in self._events
            if e.tool == tool and e.platform == platform and e.day <= day
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda e: e.day).version

    def skew(self, tool: str, day: int) -> Dict[str, Optional[str]]:
        """platform -> version visible on that platform at ``day``."""
        return {
            platform: self.available_version(tool, platform, day)
            for platform in self.platforms
        }

    def is_skewed(self, tool: str, day: int) -> bool:
        versions = set(self.skew(tool, day).values())
        return len(versions) > 1

    def propagation_lag(self, tool: str, version: str) -> Dict[str, Optional[int]]:
        """platform -> days after first release until this version arrived.

        None means the version never reached that platform.
        """
        releases = [
            e for e in self._events if e.tool == tool and e.version == version
        ]
        if not releases:
            raise ValueError(f"no release events for {tool} {version}")
        first_day = min(e.day for e in releases)
        lag: Dict[str, Optional[int]] = {}
        for platform in self.platforms:
            event = next((e for e in releases if e.platform == platform), None)
            lag[platform] = None if event is None else event.day - first_day
        return lag

    def track_record(self, tool: str) -> Dict[str, float]:
        """Mean propagation lag per platform over all versions of ``tool``.

        The number the paper says to check before purchasing.
        """
        versions = {e.version for e in self._events if e.tool == tool}
        sums: Dict[str, List[int]] = {platform: [] for platform in self.platforms}
        for version in versions:
            for platform, lag in self.propagation_lag(tool, version).items():
                if lag is not None:
                    sums[platform].append(lag)
        return {
            platform: (sum(lags) / len(lags) if lags else float("inf"))
            for platform, lags in sums.items()
        }
