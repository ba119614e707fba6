"""Pipeline benchmark of the gaugeNN reproduction (see ``run.py``)."""
