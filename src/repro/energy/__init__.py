"""Energy models: Table V cell parameters and the nvsim-equivalent line
energy model (Table VI).  The run-level Figure-16 sum is computed once,
in :meth:`repro.sim.system.System._collect`."""
