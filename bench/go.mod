module egocensus/bench

go 1.23

require egocensus v0.0.0

replace egocensus => ../
