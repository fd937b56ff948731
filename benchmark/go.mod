module vini/benchmark

go 1.22

require vini v0.0.0

replace vini => ../
