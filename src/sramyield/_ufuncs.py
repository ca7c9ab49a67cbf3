"""scipy's normal CDF and quantile ufuncs, without the scipy.special package.

`scipy/special/__init__.py` also loads scipy's array-API layer, which no
command uses. When the package is not loaded yet, a stub `scipy.special`
with the real `__path__` stands in while the compiled `_ufuncs` module is
imported, and is removed after. A later real `import scipy.special` reuses
that loaded module, so `ndtr` and `ndtri` are the package's own objects in
either import order. This relies on scipy's private layout
(`scipy/special/_ufuncs`); if it changes, the import fails here.
"""

import os
import sys
from types import ModuleType

import scipy  # loads no submodule

# not hasattr(scipy, "special"): scipy's lazy __getattr__ would load the package
_stubbed = "scipy.special" not in sys.modules
if _stubbed:
    _stub = sys.modules["scipy.special"] = ModuleType("scipy.special")
    _stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
try:
    from scipy.special import _ufuncs as _scipy_ufuncs
finally:
    if _stubbed:
        del sys.modules["scipy.special"], _stub
        vars(scipy).pop("special", None)

ndtr, ndtri = _scipy_ufuncs.ndtr, _scipy_ufuncs.ndtri
