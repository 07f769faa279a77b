module sagnn/benchmark

go 1.21

require sagnn v0.0.0

replace sagnn => ../
