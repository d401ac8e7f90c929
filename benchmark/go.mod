module gqa/benchmark

go 1.22

require gqa v0.0.0

replace gqa => ../
