"""Client workload: synthetic trace + open-loop Poisson request streams."""

from .client import CONNECT_TIMEOUT, REQUEST_TIMEOUT, ClientMachine, Workload
from .trace import (
    DEFAULT_FILE_BYTES,
    DEFAULT_N_FILES,
    DEFAULT_ZIPF_S,
    FileSet,
)

__all__ = [
    "FileSet",
    "ClientMachine",
    "Workload",
    "CONNECT_TIMEOUT",
    "REQUEST_TIMEOUT",
    "DEFAULT_N_FILES",
    "DEFAULT_FILE_BYTES",
    "DEFAULT_ZIPF_S",
]
