"""Reference implementations the differential suites and benchmarks
compare the runtime's single fast path against."""
