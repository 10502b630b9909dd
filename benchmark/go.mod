module hopsfscl/benchmark

go 1.24

require hopsfscl v0.0.0

replace hopsfscl => ../
