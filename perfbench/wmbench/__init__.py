"""The WmXML benchmark's own code; ``perfbench/run.py`` is the command."""
