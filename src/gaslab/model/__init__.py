"""Cost-model analysis: standard contracts, height-dependence
classification, polynomial time models, repricing, and validation."""
