"""Fabric topology: endpoints, links, and remote-region mapping.

The paper's prototype is a 2-node point-to-point system and its future-work
section asks for "rack-scale solutions ... modified to accommodate multiple
nodes"; the fabric supports arbitrary topologies (the cluster layer builds
a full mesh by default) so the multi-node extension benchmarks (DESIGN.md
E8) run on the same machinery.
"""

from __future__ import annotations

from repro.common.clock import SimClock
from repro.common.config import FabricLinkConfig, LocalMemoryConfig
from repro.common.errors import FabricError
from repro.common.rng import DeterministicRng
from repro.memory.host import HostMemory
from repro.thymesisflow.aperture import ApertureMap, RemoteRegion
from repro.thymesisflow.endpoint import ThymesisEndpoint
from repro.thymesisflow.link import OpenCapiLink


class ThymesisFabric:
    """All endpoints and links of one disaggregated installation."""

    def __init__(
        self,
        clock: SimClock,
        link_config: FabricLinkConfig,
        memory_config: LocalMemoryConfig,
        rng: DeterministicRng,
    ):
        self._clock = clock
        self._link_config = link_config
        self._memory_config = memory_config
        self._rng = rng.spawn("fabric")
        self._endpoints: dict[str, ThymesisEndpoint] = {}
        self._aperture_maps: dict[str, ApertureMap] = {}
        self._links: list[OpenCapiLink] = []

    @property
    def clock(self) -> SimClock:
        return self._clock

    # -- topology construction ---------------------------------------------------

    def add_node(self, name: str, memory_capacity: int) -> ThymesisEndpoint:
        """Create a node with *memory_capacity* bytes of real backing store."""
        if name in self._endpoints:
            raise FabricError(f"node {name!r} already exists")
        memory = HostMemory(memory_capacity, node=name)
        ep = ThymesisEndpoint(
            name, memory, self._clock, self._memory_config, self._rng
        )
        self._endpoints[name] = ep
        self._aperture_maps[name] = ApertureMap(ep)
        return ep

    def endpoint(self, name: str) -> ThymesisEndpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise FabricError(f"unknown node {name!r}") from None

    def nodes(self) -> list[str]:
        return sorted(self._endpoints)

    def connect(self, node_a: str, node_b: str) -> OpenCapiLink:
        """Install a point-to-point OpenCAPI link between two nodes."""
        ep_a = self.endpoint(node_a)
        ep_b = self.endpoint(node_b)
        if self._find_link(node_a, node_b) is not None:
            raise FabricError(f"{node_a} and {node_b} are already linked")
        link = OpenCapiLink(
            ep_a.name, ep_b.name, self._clock, self._link_config, self._rng
        )
        self._links.append(link)
        return link

    def connect_full_mesh(self) -> None:
        """Link every node pair (the rack-scale topology)."""
        names = self.nodes()
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if self._find_link(a, b) is None:
                    self.connect(a, b)

    def _find_link(self, node_a: str, node_b: str) -> OpenCapiLink | None:
        for link in self._links:
            if link.connects(node_a, node_b):
                return link
        return None

    def link_between(self, node_a: str, node_b: str) -> OpenCapiLink:
        link = self._find_link(node_a, node_b)
        if link is None:
            raise FabricError(f"no link between {node_a} and {node_b}")
        return link

    def links(self) -> list[OpenCapiLink]:
        return list(self._links)

    # -- mapping -------------------------------------------------------------------

    def map_remote(self, reader: str, home: str) -> RemoteRegion:
        """Give *reader* a timed window onto *home*'s exposed region.

        Requires a direct link (ThymesisFlow does not route through
        intermediate nodes).
        """
        reader_ep = self.endpoint(reader)
        home_ep = self.endpoint(home)
        link = self.link_between(reader, home)
        aperture = self._aperture_maps[reader].map_remote(home_ep, link)
        return RemoteRegion(aperture, reader_ep)
