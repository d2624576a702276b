"""numpy, imported at the first numeric call rather than at ``import versal``.

Every versal module takes ``np`` from here.  It is numpy if numpy is already
imported.  Otherwise it is a stand-in whose first attribute lookup imports
numpy (waiting on numpy's module lock while another thread imports it),
rebinds ``np`` to numpy in every loaded versal module that still holds the
stand-in, and returns the attribute; later lookups go to numpy directly.
"""

import sys
import types

_stand_in = types.ModuleType("numpy", "numpy, imported at its first use")


def _load(name):
    import numpy

    for key, module in list(sys.modules.items()):
        if key.partition(".")[0] == "versal" and vars(module).get("np") is _stand_in:
            module.np = numpy
    return getattr(numpy, name)


_stand_in.__getattr__ = _load

if "numpy" in sys.modules:
    import numpy as np
else:
    np = _stand_in
