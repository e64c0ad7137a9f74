"""Step-loop benchmark of the PIC stack (``python3 perfbench/run.py``)."""
