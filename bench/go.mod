module adaptive/bench

go 1.23

require adaptive v0.0.0

replace adaptive => ../
