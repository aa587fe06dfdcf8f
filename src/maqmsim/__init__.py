"""Simulator and schedule compiler for time-bin entanglement transfer
between multiplexed atomic quantum memories.

The package re-exports the public names of its modules; each module's
``__all__`` is the one list of what it exports:

* ``memory``: memory grids, per-cell efficiencies, survival;
* ``qstate``: density matrices and state fidelities;
* ``protocol``: branch-amplitude bookkeeping of one heralded transfer with
  per-bin drift phases, and the W projection;
* ``schedule``: timed RF control schedules and their validation;
* ``detect``: measurement settings and seeded coincidence counts;
* ``tomo``: MLE reconstruction and bootstrap fidelities;
* ``cli``: JSON configs, full pipeline runs, sweeps, the console command.
"""

__version__ = "0.1.0"

from . import cli, detect, memory, protocol, qstate, schedule, tomo
from .memory import *
from .qstate import *
from .protocol import *
from .schedule import *
from .detect import *
from .tomo import *
from .cli import *

__all__ = [
    "__version__",
    *memory.__all__,
    *qstate.__all__,
    *protocol.__all__,
    *schedule.__all__,
    *detect.__all__,
    *tomo.__all__,
    *cli.__all__,
]
