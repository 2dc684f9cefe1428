"""Legacy setup shim.

The target environment is offline and has setuptools 65 without the
``wheel`` package, so PEP-517 editable installs fail; this shim lets
``pip install -e .`` use the legacy ``setup.py develop`` path.  Package
metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Leveraging Organizational Resources to Adapt "
        "Models to New Data Modalities' (Suri et al., VLDB 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
