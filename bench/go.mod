module lemur/bench

go 1.22

require lemur v0.0.0

replace lemur => ../
