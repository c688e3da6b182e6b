"""On-disk durability primitives shared by every store.

Import :mod:`repro.storage.durable` directly; this package imports
nothing, so loading it costs a worker nothing.
"""
