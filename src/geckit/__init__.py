"""Toolkit for combining and evaluating grammatical error correction systems.

The modules are the API: import each name from the module that defines it.
The package itself holds only ``__version__``, so importing it loads no
module.

- :mod:`geckit.corpus`: file formats, the Edit type and edit-set validity.
- :mod:`geckit.align`: edit extraction and application.
- :mod:`geckit.scoring`: MaxMatch-style F0.5 scoring.
- :mod:`geckit.vote`: majority-vote edit ensembling.
- :mod:`geckit.oracle`: gold-informed upper bounds.
- :mod:`geckit.ranking`: score-based selection and similarity clustering.
- :mod:`geckit.llm`: chat-model candidate ranking with offline mocks.
- :mod:`geckit.seeds`: seed derivation for every random choice.
- :mod:`geckit.experiment`: reproducible experiment configs and sweeps.
- :mod:`geckit.cli`: the ``geckit`` command.
"""

__version__ = "0.1.0"
