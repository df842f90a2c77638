"""Exact toolkit for Delzant polytopes: charts, monomial embeddings, and
Gromov-width upper bounds.

The modules are the API: import a name from the module that defines it.  The
exact core imports only the standard library; only verify, charts and numeric
load numpy, so a process that runs only analyze, width or embed never does."""

__version__ = "0.1.0"
