"""The sparse-multiplication kernel every term-dict product calls.

Callers reach the kernel through this module's attributes rather than
importing ``_kernel_py`` directly, so one binding point names the
kernel in use (``KERNEL_IMPL``) and can be wrapped for call counting.
``_layout(trunc)[1]`` is the kernel's table of canonical key ints, which
``geometry._merged`` also stores the keys of its sums through.
"""

from ._kernel_py import _layout, iadd_terms, mul_into, mul_terms

KERNEL_IMPL = "_kernel_py"
