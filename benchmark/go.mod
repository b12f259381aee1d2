// The benchmark is a module of its own so that it builds from this
// directory alone; the import path under hummer/ is what lets it
// reach the program's internal packages through the replace below.
module hummer/benchmark

go 1.24

require hummer v0.0.0

replace hummer => ../
