"""RPR010 fixture (good): batch work routed through the kernel registry."""
from repro.kernels import get_backend


def pack(signatures):
    return get_backend().pack_signatures(signatures)
