"""modchar: exact modular characteristic classes for representations
over finite fields, with two independent computation paths that
cross-validate each other."""

__version__ = "0.1.0"
