"""Linear canonical transform engine and nonuniform multiresolution toolkit."""

__version__ = "0.1.0"
