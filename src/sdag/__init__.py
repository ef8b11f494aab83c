"""Subject-DAG routing engine.

Predicts a subject dependency graph for a question with a trainable graph
network, picks an expert model per subject from capability profiles, and
executes the graph as a prompt pipeline from supporting to dominant agents.
"""
