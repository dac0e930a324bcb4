"""Exact-arithmetic nonexistence engine for almost Moore digraphs.

An almost Moore (d,k)-digraph is diregular of degree d > 1, has diameter
k > 1, and order d + d^2 + ... + d^k, one below the Moore bound.  This
package decides and certifies nonexistence of such digraphs with
self-repeats: cyclotomic factorization of Phi_i(1 + x + ... + x^k) scored
against the two-factor conjecture, Ramanujan-sum trace infeasibility with
prime witnesses, permutation cycle-structure enumeration, and machine
verification of the structural theorems on constructed (d,2) instances.
"""

from .cyclotomic import build_F
from .factorization import certify_irreducible, factor_over_Q
from .sieve import decide, validate_certificate
from .structures import enumerate_structures

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "build_F",
    "certify_irreducible",
    "decide",
    "enumerate_structures",
    "factor_over_Q",
    "validate_certificate",
]
