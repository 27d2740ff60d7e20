module ncache/benchmarks/ncmark

go 1.22

require ncache v0.0.0

replace ncache => ../..
