"""The sparse-multiplication kernel every product in the package calls.

Callers reach the kernel through this module's attributes rather than
importing ``_kernel_py`` directly, so one binding point names the
kernel in use (``KERNEL_IMPL``) and can be wrapped for call counting.
"""

from ._kernel_py import iadd_terms, merge_parts, mul_into, mul_terms

KERNEL_IMPL = "_kernel_py"
