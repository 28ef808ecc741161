"""Synthetic MDT dataset generation for a 21-cell macro scenario.

`layout` builds the network geometry, `fields` the per-cell lognormal
shadowing and `dominance` the radio and dominance maps; `engine` drives
the event simulator (A2/A3 measurement events, handovers, and the
random-access failure of the sleeping cell) with the settings of
`config.SimConfig`; `suite` produces the normal / problematic /
reference datasets with ground truth and reads them back.

The package re-exports nothing: each name is imported from its module,
so that detect, evaluate and report, which only read a suite, load
neither `engine` nor `fields`.
"""
