"""Setup shim for environments installing without PEP 517 build isolation."""
from setuptools import setup

# numpy runs the columnar mining kernels, the only mining route
setup(install_requires=["numpy"])
