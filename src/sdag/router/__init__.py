"""Trainable subject router: graph network, loss, training, DAG generation."""
