"""The sparse-multiplication kernel every term-dict product calls.

Callers reach the kernel through this module's attributes rather than
importing ``_kernel_py`` directly, so one binding point names the
kernel in use (``KERNEL_IMPL``) and can be wrapped for call counting.
The key layout the kernel reads, its weight limit and its table of
canonical key ints, is ``partitions.codec(trunc)``'s.
"""

from ._kernel_py import iadd_terms, mul_into, mul_terms

KERNEL_IMPL = "_kernel_py"
