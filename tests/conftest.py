import os
import sys

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, os.path.dirname(__file__))

# Write no bytecode cache, here or in the processes the tests start: a stray
# src/ectorsion/__pycache__ changes how fast the package loads in a checkout.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
