module powerchief/bench

go 1.22

require powerchief v0.0.0

replace powerchief => ../
