// The benchmark is its own module so that it builds, tests and moves between
// commits as one directory. The module path sits under repro/ — that is what
// lets it import repro/internal/... through the replace below.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
