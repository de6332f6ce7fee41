module newtos/bench

go 1.24

require newtos v0.0.0

replace newtos => ../
