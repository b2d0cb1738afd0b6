"""Repository benchmark for the PABST simulator; entry point ``run.py``."""
