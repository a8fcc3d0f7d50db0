module simcloud/benchmark

go 1.23

require simcloud v0.0.0

replace simcloud => ../
