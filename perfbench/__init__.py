"""Host-time benchmark of the simulator: workloads, runner and layer tracer."""
