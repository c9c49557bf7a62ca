module sqlb/benchmark

go 1.24

require sqlb v0.0.0

replace sqlb => ../
