"""Service definitions.

A service is a class with ``@rpc_method``-decorated handlers; each handler
takes a request dict and returns a response dict. The decorator is the
moral equivalent of a ``.proto`` service definition: the server derives its
dispatch table from it and stubs derive their method surface.
"""

from __future__ import annotations

from typing import Callable

_RPC_ATTR = "__rpc_method__"


def rpc_method(fn: Callable) -> Callable:
    """Mark *fn* as an RPC handler exposed by its service."""
    setattr(fn, _RPC_ATTR, True)
    return fn


class Service:
    """Base class for RPC services.

    Subclasses set ``SERVICE_NAME`` and decorate handlers with
    :func:`rpc_method`. Handlers receive ``(request: dict)`` and return a
    response dict; raising a framework exception is translated to a status
    code by the server.
    """

    SERVICE_NAME: str = ""
    #: The server this instance is registered on (set by ``add_service``).
    server = None

    @classmethod
    def service_name(cls) -> str:
        return cls.SERVICE_NAME or cls.__name__

    def rpc_methods(self) -> dict[str, Callable]:
        """Name -> bound handler for every decorated method."""
        out: dict[str, Callable] = {}
        for name in dir(self):
            if name.startswith("_"):
                continue
            member = getattr(self, name)
            if callable(member) and getattr(member, _RPC_ATTR, False):
                out[name] = member
        return out

    def caller(self) -> str | None:
        """The host whose call the running handler serves — the analogue
        of gRPC's ``context.peer()``; None outside a dispatch, on an
        unregistered service, or when the transport did not name it."""
        return None if self.server is None else self.server.caller
