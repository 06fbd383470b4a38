"""Legacy setup shim.

The execution environment is offline with setuptools 65 and no `wheel`
package, so PEP 517 editable installs fail with `invalid command
'bdist_wheel'`.  This shim lets `pip install -e . --no-use-pep517
--no-build-isolation` (and plain `pip install -e .`, which pip falls
back to) work everywhere.  There is no pyproject.toml: the metadata
below is all there is.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
