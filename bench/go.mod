module github.com/insitu/cods/bench

go 1.22

require github.com/insitu/cods v0.0.0

replace github.com/insitu/cods => ../
