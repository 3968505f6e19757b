"""Reliable FIFO message transport for the simulated cluster.

The paper's system model (section 3): "Processes communicate only by message
passing.  Messages are delivered reliably and in FIFO order."  This package
provides exactly that on top of the discrete-event kernel, plus the
accounting the evaluation needs: every message carries a *layer* tag
(coherence / checkpoint / recovery / application) and an explicit
*piggyback* compartment, so experiments can verify the paper's "no extra
messages during the failure-free period" claim and measure the piggyback
byte overhead.

The modules are imported by name (``repro.net.message``,
``repro.net.network``, ...); this file imports none of them, so
``repro.types`` can size itself with :mod:`repro.net.sizing` without an
import cycle.
"""
