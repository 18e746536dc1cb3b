"""q8sculpt: sculptures whose symmetry group is exactly the eight-element
quaternion group, built by lifting an asymmetric seed onto the 3-sphere,
replicating it by right multiplication, and stereographically projecting the
copies back to printable 3-space.

Import names from their modules (``q8sculpt.symmetry.symmetry_group`` and so
on): the package namespace holds only ``__version__``, so importing it loads
no submodule."""

__version__ = "0.1.0"
