//go:build !race

package drapid_test

const raceEnabled = false
