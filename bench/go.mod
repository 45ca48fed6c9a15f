module d2tree/bench

go 1.23

require d2tree v0.0.0

replace d2tree => ../
