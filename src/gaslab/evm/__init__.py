"""The gas-metered interpreter: opcodes, gas schedules and the machine."""
