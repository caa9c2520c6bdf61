"""Which of numpy's SIMD kernel paths this process runs, named by its bits.

numpy picks its float64 exp, log, sinh, cosh, tanh and power kernels by the
host's SIMD extensions, and NPY_DISABLE_CPU_FEATURES switches the wider ones
off for one process.  The paths round 1-2 ulp apart at some arguments, so a
report's bytes are pinned per path.  `fingerprint()` hashes the results of
every function the expression language evaluates through numpy
(`expr._NP_FUNC`) and of np.power at the integer exponents, on one fixed
probe vector.  `PATHS` names the fingerprints of the paths that the pins
record, and `kernel_path()` names the path of this process, or fails the
test, naming the fingerprint, on a path the pins do not know.

    python tests/kernel_paths.py    # print this host's fingerprint and path
"""

import hashlib

import numpy as np
import pytest

from solitonlab.expr import _NP_FUNC

# no zero among them: the negative powers stay finite
PROBE = np.linspace(-6.0, 6.0, 4000)
EXPONENTS = (-4, -3, -2, -1, 2, 3, 4, 5, 6)

# the NPY_DISABLE_CPU_FEATURES settings that reach each path on an AVX-512
# host (numpy 2.4, x86-64): none, then AVX-512 off (X86_V3), then AVX2 too
SETTINGS = {"X86_V4": "", "X86_V3": "X86_V4 AVX512_ICL AVX512_SPR",
            "baseline": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"}

PATHS = {"2116a04e15cc0989": "X86_V4", "cb21c76fa55fd9ba": "X86_V3",
         "eadeb71639eadf77": "baseline"}


def fingerprint() -> str:
    h = hashlib.sha256()
    for name in sorted(_NP_FUNC):
        arg = np.abs(PROBE) if name in ("ln", "sqrt") else PROBE
        h.update(name.encode())
        h.update(_NP_FUNC[name](arg).tobytes())
    for k in EXPONENTS:
        h.update(np.power(PROBE, k).tobytes())
    return h.hexdigest()[:16]


def kernel_path() -> str:
    fp = fingerprint()
    if fp not in PATHS:
        pytest.fail(f"numpy kernel fingerprint {fp} (numpy {np.__version__}) is not "
                    f"one of the pinned paths {PATHS}: record its digests")
    return PATHS[fp]


if __name__ == "__main__":
    fp = fingerprint()
    print(f"numpy {np.__version__} kernel fingerprint {fp} ({PATHS.get(fp, 'unknown')})")
