"""The kernels' one numpy import.

numpy is a hard requirement: the columnar kernels are the only mining
route, and every module that needs numpy imports ``np`` from here.
"""

import numpy as np

__all__ = ["np"]
