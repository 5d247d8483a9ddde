module drapid/bench

go 1.24

require drapid v0.0.0

replace drapid => ../
