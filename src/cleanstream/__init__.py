"""Continual learning from label-noisy data streams.

A two-layer pipeline: a label-quality model decides which arriving
instances look correctly labelled, and a classifier trains only on the
accepted pool. Variants add classifier voting, an oracle for disagreements,
and a slimmed single-model mode. Baselines (take-everything, omniscient
selection, fully clean labels) bracket what selection can achieve.
"""
