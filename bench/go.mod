module mtp/bench

go 1.22

require mtp v0.0.0

replace mtp => ../
