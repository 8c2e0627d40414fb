"""The seed algorithms the synthesis engine replaced, kept as test oracles.

:mod:`.synthesizer` swaps them all into ``Synthesizer`` at once.
"""
