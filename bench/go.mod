module github.com/pbitree/pbitree/bench

go 1.22

require github.com/pbitree/pbitree v0.0.0

replace github.com/pbitree/pbitree => ../
